"""``repro.records.record`` against ``dataclasses.dataclass``.

The same class bodies are declared once with each decorator (every
option combination ``src/`` uses), and each behaviour a caller can see
is compared: construction and its errors, field bookkeeping, ``==`` and
hash values, ``repr``, frozen assignment, pickle and deepcopy.  Then
every record class in ``src/repro`` is compared with a twin that
``dataclasses`` builds from the same class body, and threads race the
first calls of a fresh record class.
"""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil
import re
import sys
import threading
import types
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

import repro
from repro import records
from repro.records import record

# Declared once per decorator (``DECORATE``), in a module of its own so
# instances pickle by name.
FAMILY = '''
from __future__ import annotations

from dataclasses import field

from repro.indices.intern import Interned


@DECORATE
class Plain:
    x: int
    items: list = field(default_factory=list)
    label: str = "plain"
    hidden: str = field(default="h", repr=False)


@DECORATE
class Node:
    """A base record whose field is keyword-only (the AST's ``span``)."""

    span: int = field(default=0, kw_only=True)


@DECORATE
class Leaf(Node):
    name: str
    children: list = field(default_factory=list)


@DECORATE(frozen=True)
class Atom:
    rel: str
    lhs: tuple = ()

    def __post_init__(self) -> None:
        assert self.rel in {">=", "="}


@DECORATE(frozen=True, slots=True)
class Arrow:
    dom: object
    cod: object
    tag: str = "->"


@DECORATE(slots=True)
class Cell:
    value: int
    note: str = ""


class Term(metaclass=Interned):
    __slots__ = ("_nid", "__weakref__")

    def __reduce__(self):
        cls = type(self)
        return (cls, tuple(getattr(self, name) for name in cls.__match_args__))


@DECORATE(frozen=True, slots=True, eq=False)
class Var(Term):
    uid: int
    hint: str = "?"


@DECORATE(frozen=True, slots=True, eq=False)
class Add(Term):
    left: Term
    right: Term
'''


def _family(name: str, decorate) -> types.ModuleType:
    module = types.ModuleType(name)
    module.DECORATE = decorate
    sys.modules[name] = module
    exec(compile(FAMILY, f"<{name}>", "exec"), module.__dict__)
    return module


REC = _family("_records_family", record)
REF = _family("_dataclasses_family", dataclasses.dataclass)
CLASSES = ["Plain", "Node", "Leaf", "Atom", "Arrow", "Cell", "Var", "Add"]


def outcome(fn, *args, **kwargs):
    """What a call did: ``("ok", value)`` or ``("raise", type, text)``."""
    try:
        return ("ok", fn(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return ("raise", type(exc), str(exc))


def state(obj) -> tuple:
    return (type(obj).__qualname__,) + tuple(
        getattr(obj, f.name) for f in dataclasses.fields(obj)
    )


#: Constructor calls per class: good ones and each kind of error.
CALLS = {
    "Plain": [((1,), {}), ((1, [2], "l", "hh"), {}), ((), {"x": 3, "label": "k"}),
              ((), {}), ((1, [], "l", "h", "extra"), {}), ((1,), {"nope": 2}),
              ((1,), {"x": 2})],
    "Node": [((), {}), ((), {"span": 4}), ((4,), {})],
    "Leaf": [(("a",), {}), (("a", [1]), {"span": 7}), ((), {"name": "b"}),
             ((), {}), (("a", [], 3), {})],
    "Atom": [((">=",), {}), (("=", (1, 2)), {}), (("<",), {}), ((), {})],
    "Arrow": [((1, 2), {}), ((1,), {"cod": 2, "tag": "=>"}), ((1,), {}),
              ((1, 2, 3, 4), {})],
    "Cell": [((1,), {}), ((1, "n"), {}), ((), {"value": 2}), ((), {})],
    "Var": [((1,), {}), ((1, "x"), {}), ((), {"uid": 1}), ((), {}),
            ((1, "x", 2), {}), ((1,), {"bad": 0})],
    "Add": [((0, 1), {}), ((0,), {})],
}


def build(module, name, args, kwargs):
    result = outcome(getattr(module, name), *args, **kwargs)
    return ("ok", state(result[1])) if result[0] == "ok" else result


@pytest.mark.parametrize("name", CLASSES)
def test_construction_and_its_errors(name):
    for args, kwargs in CALLS[name]:
        assert build(REC, name, args, kwargs) == build(REF, name, args, kwargs), (
            args, kwargs,
        )


def test_declaration_errors():
    def frozen_setattr(decorate):
        @decorate(frozen=True)
        class Bad:
            a: int

            def __setattr__(self, name, value):
                pass

    made = outcome(frozen_setattr, record)
    assert made[:2] == ("raise", TypeError)
    assert made == outcome(frozen_setattr, dataclasses.dataclass)

    def not_an_init_field(decorate):
        @decorate
        class Unsupported:
            a: int = dataclasses.field(default=0, init=False)

    assert outcome(not_an_init_field, record)[:2] == ("raise", TypeError)


def test_default_factory_gives_each_instance_its_own_value():
    first, second = REC.Plain(1), REC.Plain(1)
    assert first.items == [] and first.items is not second.items
    assert REC.Leaf("a").children is not REC.Leaf("a").children


@pytest.mark.parametrize("name", CLASSES)
def test_field_bookkeeping(name):
    rec, ref = getattr(REC, name), getattr(REF, name)
    assert rec.__match_args__ == ref.__match_args__

    def spec(cls):
        return [
            (f.name, f.type, f.default, f.default_factory, f.init, f.repr,
             f.hash, f.compare, f.kw_only)
            for f in dataclasses.fields(cls)
        ]

    assert spec(rec) == spec(ref)
    assert dataclasses.is_dataclass(rec)


def test_replace_and_asdict():
    rec, ref = (m.Leaf("a", [m.Plain(1)], span=3) for m in (REC, REF))
    assert dataclasses.asdict(rec) == dataclasses.asdict(ref)
    rec, ref = (m.Leaf("a", [1], span=3) for m in (REC, REF))
    assert state(dataclasses.replace(rec, name="b")) == state(
        dataclasses.replace(ref, name="b")
    )
    assert outcome(dataclasses.replace, rec, nope=1) == outcome(
        dataclasses.replace, ref, nope=1
    )
    arrow = REC.Arrow(1, 2)
    assert state(dataclasses.replace(arrow, tag="=>")) == ("Arrow", 1, 2, "=>")


def _pairs(module):
    """Pairs of instances to compare, equal and unequal ones."""
    m = module
    return [
        (m.Plain(1), m.Plain(1)), (m.Plain(1), m.Plain(2)),
        (m.Plain(1, hidden="a"), m.Plain(1, hidden="b")),
        (m.Leaf("a", span=1), m.Leaf("a", span=2)), (m.Leaf("a"), m.Node()),
        (m.Atom(">="), m.Atom(">=")), (m.Atom(">="), m.Atom("=")),
        (m.Arrow(1, 2), m.Arrow(1, 2)), (m.Arrow(1, 2), m.Arrow(2, 1)),
        (m.Arrow(m.Arrow(1, 2), 3), m.Arrow(m.Arrow(1, 2), 3)),
        (m.Cell(1), m.Cell(1)), (m.Var(1), m.Var(1)), (m.Var(1), m.Var(2)),
        (m.Arrow(1, 2), "Arrow(1, 2)"),
    ]


def test_equality():
    assert [a == b for a, b in _pairs(REC)] == [a == b for a, b in _pairs(REF)]
    assert [a != b for a, b in _pairs(REC)] == [a != b for a, b in _pairs(REF)]


def test_hash_values():
    def hashes(module):
        return [outcome(hash, a)[:2] for a, _ in _pairs(module)]

    rec, ref = hashes(REC), hashes(REF)
    # Identity-hashed classes (eq=False) differ by object; the rest
    # hash their field tuple and must agree exactly.
    identity = {i for i, (a, _) in enumerate(_pairs(REF)) if type(a).__name__ == "Var"}
    assert [h for i, h in enumerate(rec) if i not in identity] == [
        h for i, h in enumerate(ref) if i not in identity
    ]
    assert hash(REC.Arrow(1, 2)) == hash((1, 2, "->"))
    assert hash(REC.Atom(">=", (1,))) == hash((">=", (1,)))
    assert outcome(hash, REC.Plain(1))[:2] == ("raise", TypeError)
    assert REC.Var(1) is REC.Var(1, "?") is REC.Var(uid=1)


def test_repr():
    assert [repr(a) for a, _ in _pairs(REC)] == [repr(a) for a, _ in _pairs(REF)]
    assert "hidden" not in repr(REC.Plain(1))
    for module in (REC, REF):
        loop = module.Plain(1)
        loop.items.append(loop)
        assert repr(loop) == "Plain(x=1, items=[...], label='plain')"


@pytest.mark.parametrize("name", ["Atom", "Arrow", "Var"])
def test_frozen_assignment_and_deletion(name):
    args = {"Atom": (">=",), "Arrow": (1, 2), "Var": (5,)}[name]
    rec, ref = getattr(REC, name)(*args), getattr(REF, name)(*args)
    field_name = getattr(REC, name).__match_args__[0]
    assert outcome(setattr, rec, field_name, 1) == outcome(setattr, ref, field_name, 1)
    assert outcome(delattr, rec, field_name) == outcome(delattr, ref, field_name)
    assert outcome(setattr, rec, field_name, 1)[1] is FrozenInstanceError
    # Any other name is refused too.  (dataclasses raises FrozenInstanceError
    # here without slots=True, and a TypeError from super() with it.)
    assert outcome(setattr, rec, "other", 1) == (
        "raise", FrozenInstanceError, "cannot assign to field 'other'"
    )
    assert outcome(delattr, rec, "other") == (
        "raise", FrozenInstanceError, "cannot delete field 'other'"
    )


def test_object_setattr_still_writes_a_frozen_instance():
    # The intern table stamps each new node's id this way.
    assert isinstance(REC.Add(REC.Var(1), REC.Var(2))._nid, int)
    atom = REC.Atom(">=")
    object.__setattr__(atom, "rel", "=")
    assert atom.rel == "="


def test_pickle_and_deepcopy_round_trips():
    for module in (REC, REF):
        for obj, _ in _pairs(module)[:-1]:
            for copied in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
                assert state(copied) == state(obj)
                assert copied == obj
    add = REC.Add(REC.Var(1), REC.Var(2))
    assert pickle.loads(pickle.dumps(add)) is add
    assert copy.deepcopy(add) is add
    arrow = REC.Arrow(REC.Arrow(1, 2), 3)
    assert type(arrow).__getstate__ is records._getstate
    assert pickle.loads(pickle.dumps(arrow)) == arrow


# ---------------------------------------------------------------------------
# Every record class in src/repro against a dataclasses twin
# ---------------------------------------------------------------------------


def _record_classes() -> list[type]:
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    found = {}
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro."):
            continue
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and value.__module__ == module_name
                and "__dataclass_fields__" in value.__dict__
            ):
                found[f"{module_name}.{value.__qualname__}"] = value
    return [found[name] for name in sorted(found)]


RECORD_CLASSES = _record_classes()


#: Default values such as locks compare by identity, so compare their
#: type, and drop object addresses from reprs.
ADDRESS = re.compile(r" at 0x[0-9a-f]+")


def comparable(values: tuple) -> tuple:
    return tuple(v if type(v).__eq__ is not object.__eq__ else type(v) for v in values)


def _made_by_record(value) -> bool:
    code = getattr(inspect.unwrap(value), "__code__", None) if callable(value) else None
    return code is not None and code.co_filename in (records.__file__, "<string>")


def _twin(cls: type) -> type:
    """``dataclasses.dataclass`` applied to ``cls``'s own class body,
    with the options the record was declared with."""
    own = cls.__dict__
    slots = "__slots__" in own
    frozen = _made_by_record(own.get("__setattr__"))
    eq = "__eq__" in own
    dropped = {
        "__dict__", "__weakref__", "__slots__", "__dataclass_fields__",
        "__dataclass_params__", "__match_args__", *own.get("__slots__", ()),
    }
    namespace = {
        key: value for key, value in own.items()
        if key not in dropped
        and not _made_by_record(value)
        and not (key == "__hash__" and value is None)
    }
    for f in dataclasses.fields(cls):
        if f.name in own.get("__annotations__", {}):
            namespace[f.name] = dataclasses.field(
                default=f.default, default_factory=f.default_factory,
                init=f.init, repr=f.repr, hash=f.hash, compare=f.compare,
                metadata=f.metadata, kw_only=f.kw_only,
            )
    twin = type(cls)(cls.__name__, cls.__bases__, namespace)
    return dataclasses.dataclass(twin, frozen=frozen, eq=eq, slots=slots)


def test_the_sweep_finds_every_record_class():
    # src/ has 147 record classes.
    assert len(RECORD_CLASSES) >= 145
    source = Path(repro.__file__).parent
    decorated = re.compile(r"^\s*@dataclass", re.M)
    assert [p for p in source.rglob("*.py") if decorated.search(p.read_text())] == []


@pytest.mark.parametrize(
    "cls", RECORD_CLASSES,
    ids=[f"{c.__module__}.{c.__qualname__}" for c in RECORD_CLASSES],
)
def test_every_record_class_matches_its_dataclass_twin(cls):
    twin = _twin(cls)
    assert twin.__match_args__ == cls.__match_args__
    args = [f"<{name}>" for name in cls.__match_args__
            if cls.__dataclass_fields__[name].default is dataclasses.MISSING
            and cls.__dataclass_fields__[name].default_factory is dataclasses.MISSING]
    made, expected = outcome(cls, *args), outcome(twin, *args)
    assert made[0] == expected[0], (made, expected)
    if made[0] == "raise":
        assert made[1:] == expected[1:]
        return
    obj, ref = made[1], expected[1]
    assert comparable(state(obj)[1:]) == comparable(state(ref)[1:])
    assert ADDRESS.sub("", repr(obj)) == ADDRESS.sub("", repr(ref))
    other, other_ref = cls(*args), twin(*args)
    assert (obj == other) == (ref == other_ref)
    assert (type(obj).__hash__ is None) == (type(ref).__hash__ is None)
    if "__hash__" in twin.__dict__ and twin.__hash__ is not None:
        assert outcome(hash, obj) == outcome(hash, ref)  # the field tuple's
    copied, copied_ref = outcome(copy.deepcopy, obj), outcome(copy.deepcopy, ref)
    assert copied[0] == copied_ref[0]
    if copied[0] == "ok":
        assert comparable(state(copied[1])[1:]) == comparable(state(obj)[1:])
    for name in cls.__match_args__[:1]:
        assert outcome(setattr, obj, name, 0) == outcome(setattr, ref, name, 0)
        assert outcome(delattr, obj, name) == outcome(delattr, ref, name)


# ---------------------------------------------------------------------------
# Threads racing the first calls
# ---------------------------------------------------------------------------


def test_threads_racing_first_calls_all_get_right_answers():
    threads_n, rounds = 8, 25
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(rounds):

            @record(frozen=True, slots=True)
            class Pair:
                left: int
                right: tuple = ()

            barrier = threading.Barrier(threads_n)
            results: list = [None] * threads_n

            def first_calls(i: int) -> None:
                barrier.wait()
                made = Pair(i, (i,))
                results[i] = (
                    made.left, made.right, made == Pair(i, (i,)),
                    made == Pair(i + 1), hash(made), repr(made),
                )

            workers = [
                threading.Thread(target=first_calls, args=(i,))
                for i in range(threads_n)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
            assert not any(worker.is_alive() for worker in workers)
            assert results == [
                (i, (i,), True, False, hash((i, (i,))),
                 f"{Pair.__qualname__}(left={i}, right=({i},))")
                for i in range(threads_n)
            ]
            assert Pair.__init__.__code__.co_filename == "<string>"
    finally:
        sys.setswitchinterval(old_interval)
