"""Run-time values for the DML-lite interpreter.

Representation choices:

* integers and booleans are Python ``int``/``bool``;
* ``unit`` and tuples are Python tuples;
* arrays are Python lists (mutable, like SML arrays);
* datatype values are :class:`ConV` cells — lists are ``::``-chains;
* functions are :class:`Closure` (named, possibly multi-clause,
  possibly curried), :class:`FnV` (anonymous ``fn``), or
  :class:`BuiltinV`; :class:`PartialV` holds partially applied curried
  closures.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.records import record

#: The unit value.
UNIT: tuple = ()


@record(frozen=True, slots=True)
class ConV:
    """A datatype constructor value; ``arg`` is ``None`` for nullary."""

    con: str
    arg: Any = None

    def __repr__(self) -> str:
        if self.con == "::":
            return f"{self.arg[0]} :: {self.arg[1]!r}"
        if self.arg is None:
            return self.con
        return f"{self.con}({self.arg!r})"


NIL = ConV("nil")


def from_pylist(items: list) -> ConV:
    """Convert a Python list to a DML list value."""
    result = NIL
    for item in reversed(items):
        result = ConV("::", (item, result))
    return result


def to_pylist(value: ConV) -> list:
    """Convert a DML list value to a Python list."""
    items = []
    while value.con == "::":
        head, value = value.arg
        items.append(head)
    if value.con != "nil":
        raise ValueError(f"not a list value: {value!r}")
    return items


@record(slots=True)
class Env:
    """A lexical environment: one dict per scope, chained."""

    bindings: dict[str, Any]
    parent: "Env | None" = None

    def lookup(self, name: str) -> Any:
        env: Env | None = self
        while env is not None:
            if name in env.bindings:
                return env.bindings[name]
            env = env.parent
        raise KeyError(name)

    def child(self, bindings: dict[str, Any] | None = None) -> "Env":
        return Env(bindings if bindings is not None else {}, self)


@record(slots=True)
class Closure:
    """A named function value from a ``fun`` declaration."""

    name: str
    #: (params, body) pairs; all clauses share one arity.
    clauses: list
    env: Env
    arity: int


@record(slots=True)
class FnV:
    """An anonymous ``fn pat => body`` value."""

    param: Any
    body: Any
    env: Env


@record(slots=True)
class PartialV:
    """A curried closure applied to fewer than ``arity`` arguments."""

    closure: Closure
    args: tuple


@record(slots=True)
class BuiltinV:
    """A primitive with a Python implementation.

    ``check_kind`` is "bound"/"tag" for operations whose check the
    compiler may eliminate; such builtins receive an extra ``checked``
    flag at application time.
    """

    name: str
    fn: Callable
    check_kind: str | None = None
    always_checked: bool = False
    #: The implementation needs to apply DML function values (e.g.
    #: tabulate); it then receives the interpreter's ``apply``.
    needs_apply: bool = False


@record(slots=True)
class TailCall:
    """An application in tail position, trampolined by ``apply``."""

    fn: Any
    arg: Any


def render(value: Any) -> str:
    """Human-readable rendering of a run-time value."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if value == UNIT:
        return "()"
    if isinstance(value, tuple):
        return "(" + ", ".join(render(v) for v in value) + ")"
    if isinstance(value, list):
        return "[|" + ", ".join(render(v) for v in value) + "|]"
    if isinstance(value, ConV):
        if value.con in {"nil", "::"}:
            try:
                items = to_pylist(value)
                return "[" + ", ".join(render(v) for v in items) + "]"
            except ValueError:
                pass
        if value.arg is None:
            return value.con
        return f"{value.con}{render(value.arg) if isinstance(value.arg, tuple) else '(' + render(value.arg) + ')'}"
    if isinstance(value, (Closure, PartialV)):
        return "<fun>"
    if isinstance(value, (FnV, BuiltinV)):
        return "<fn>"
    return repr(value)
