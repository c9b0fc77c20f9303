"""Record classes whose generated methods are compiled on first call.

``@record`` takes the ``@dataclass`` options this package uses
(``frozen``, ``slots``, ``eq``) and means the same.
:func:`dataclasses.dataclass` still collects the fields, so
``fields()``, ``replace()``, ``asdict()`` and ``__match_args__`` work
unchanged.  But where ``dataclasses`` compiles ``__init__``,
``__repr__``, ``__eq__`` and ``__hash__`` from source text for every
class at import, each starts here as a stub that compiles the same text
on its first call and puts the method on the class.  Frozen classes get
closures for ``__setattr__``/``__delattr__``, with no generated code.

Differences from ``@dataclass``, none of which this package reads: an
undocumented class keeps ``__doc__ = None``; ``inspect.signature(cls)``
reads ``(*args, **kwargs)`` until the first construction;
``__dataclass_params__`` does not describe the options; on a frozen
``slots=True`` instance, setting a name that is not a field raises
``FrozenInstanceError`` (``dataclasses`` raises ``TypeError``); and
``InitVar`` and ``field(init=False)`` are not supported.

Stubs take no lock (one held across the daemon's ``fork`` would stay
held in the child): threads racing a first call may each compile the
method, from the same text, and the last one stays on the class.
"""

from __future__ import annotations

import functools
import sys
import threading
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields


def record(cls=None, /, *, frozen=False, slots=False, eq=True):
    """``@record``, or ``@record(frozen=..., slots=..., eq=...)``."""

    def wrap(cls):
        return _build(cls, frozen, slots, eq)

    return wrap if cls is None else wrap(cls)


def _build(cls: type, frozen: bool, slots: bool, eq: bool) -> type:
    own = cls.__dict__
    for name in ("__setattr__", "__delattr__") if frozen else ():
        if name in own:
            raise TypeError(
                f"Cannot overwrite attribute {name} in class {cls.__name__}"
            )
    class_hash = own.get("__hash__", MISSING)
    explicit_hash = not (
        class_hash is MISSING or (class_hash is None and "__eq__" in own)
    )
    # A truthy placeholder keeps dataclasses from building a docstring
    # out of inspect.signature.
    documented = own.get("__doc__") is not None
    if not documented:
        cls.__doc__ = cls.__name__
    cls = dataclass(cls, init=False, repr=False, eq=False, slots=slots)
    if not documented:
        cls.__doc__ = None
    if not all(f.init for f in fields(cls)):
        raise TypeError(f"{cls.__name__}: a record field must be an init field")

    own = cls.__dict__
    if "__init__" not in own:
        _lazy(cls, "__init__", lambda: _init_fn(cls, frozen))
    if "__repr__" not in own:
        _lazy(cls, "__repr__", lambda: _repr_fn(cls))
    if eq and "__eq__" not in own:
        _lazy(cls, "__eq__", lambda: _eq_fn(cls))
    if eq and not explicit_hash:
        if frozen:
            _lazy(cls, "__hash__", lambda: _hash_fn(cls))
        else:
            cls.__hash__ = None  # type: ignore[assignment]
    if frozen:
        cls.__setattr__, cls.__delattr__ = _frozen_attrs(cls)
    if frozen and slots:
        # Unpickling and deepcopy restore the slots through __setstate__,
        # which must get past the frozen __setattr__.
        if "__getstate__" not in own:
            cls.__getstate__ = _getstate
        if "__setstate__" not in own:
            cls.__setstate__ = _setstate
    return cls


def _lazy(cls: type, name: str, build) -> None:
    """Put a stub on ``cls`` that replaces itself with ``build()`` on
    its first call."""

    def stub(self, *args, **kwargs):
        method = cls.__dict__[name]
        if method is stub:
            method = build()
            setattr(cls, name, method)
        return method(self, *args, **kwargs)

    setattr(cls, name, stub)


# The functions below build the code dataclasses generates (CPython
# 3.10-3.12), without the parameter annotations.

#: Default marker for a parameter whose field has a default_factory.
_HAS_DEFAULT_FACTORY = object()


def _create(cls: type, name: str, args: list[str], body: list[str], env: dict):
    """Compile ``def name(args): body`` in a closure over ``env``, with
    the class's module as its globals (``dataclasses._create_fn``)."""
    lines = "".join(f"\n  {line}" for line in body)
    text = f"def __create_fn__({', '.join(env)}):\n def {name}({','.join(args)}):"
    module = sys.modules.get(cls.__module__)
    namespace: dict = {}
    globals_ = vars(module) if module else {}
    exec(f"{text}{lines}\n return {name}", globals_, namespace)
    fn = namespace["__create_fn__"](**env)
    fn.__qualname__ = f"{cls.__qualname__}.{name}"
    return fn


def _init_fn(cls: type, frozen: bool):
    self_name = "self"
    if "self" in cls.__dataclass_fields__:
        self_name = "__dataclass_self__"
    env = {
        "_HAS_DEFAULT_FACTORY": _HAS_DEFAULT_FACTORY,
        "__dataclass_builtins_object__": object,
    }
    params, kw_params, body = [self_name], ["*"], []
    for f in fields(cls):
        param = value = f.name
        if f.default_factory is not MISSING:
            env[f"_dflt_{f.name}"] = f.default_factory
            param += "=_HAS_DEFAULT_FACTORY"
            value = f"_dflt_{f.name}() if {f.name} is _HAS_DEFAULT_FACTORY else {value}"
        elif f.default is not MISSING:
            env[f"_dflt_{f.name}"] = f.default
            param += f"=_dflt_{f.name}"
        (kw_params if f.kw_only else params).append(param)
        if frozen:
            body.append(
                "__dataclass_builtins_object__.__setattr__"
                f"({self_name},{f.name!r},{value})"
            )
        else:
            body.append(f"{self_name}.{f.name}={value}")
    if hasattr(cls, "__post_init__"):
        body.append(f"{self_name}.__post_init__()")
    args = params + kw_params if len(kw_params) > 1 else params
    return _create(cls, "__init__", args, body or ["pass"], env)


def _repr_fn(cls: type):
    shown = ", ".join(
        f"{f.name}={{self.{f.name}!r}}" for f in fields(cls) if f.repr
    )
    text = 'return self.__class__.__qualname__ + f"(' + shown + ')"'
    fn = _create(cls, "__repr__", ["self"], [text], {})
    running: set = set()

    @functools.wraps(fn)
    def guarded(self):
        # "..." for an instance already being repr'd on this thread.
        key = id(self), threading.get_ident()
        if key in running:
            return "..."
        running.add(key)
        try:
            return fn(self)
        finally:
            running.discard(key)

    return guarded


def _tuple(obj: str, names: list[str]) -> str:
    return f"({','.join(f'{obj}.{n}' for n in names)},)" if names else "()"


def _eq_fn(cls: type):
    names = [f.name for f in fields(cls) if f.compare]
    body = [
        "if other.__class__ is self.__class__:",
        f" return {_tuple('self', names)}=={_tuple('other', names)}",
        "return NotImplemented",
    ]
    return _create(cls, "__eq__", ["self", "other"], body, {})


def _hash_fn(cls: type):
    names = [
        f.name for f in fields(cls) if (f.compare if f.hash is None else f.hash)
    ]
    body = [f"return hash({_tuple('self', names)})"]
    return _create(cls, "__hash__", ["self"], body, {})


def _frozen_attrs(cls: type):
    names = tuple(f.name for f in fields(cls))

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    return __setattr__, __delattr__


def _getstate(self):
    return [getattr(self, f.name) for f in fields(self)]


def _setstate(self, state):
    for f, value in zip(fields(self), state):
        object.__setattr__(self, f.name, value)
