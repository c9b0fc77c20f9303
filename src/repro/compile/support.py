"""Runtime support for Python code generated by
:mod:`repro.compile.pycodegen`.

Value representation in compiled code (chosen for speed, not
uniformity with the interpreter):

* integers/booleans — Python ``int``/``bool``;
* unit and tuples — Python tuples;
* arrays — Python lists;
* lists — ``None`` for ``nil``, a ``(head, tail)`` pair for ``::``;
* other datatype values — the tag string for nullary constructors, a
  ``(tag, arg)`` pair otherwise.

The generated module imports its helpers from here.  Every dialect
emits a kept array check as a call to a checked helper (``_subc`` for
reads, ``_updc`` or the dialect's variant for writes).  In ``plain`` an
eliminated read is a bare ``a[i]``, and an eliminated write is a bare
``a[i] = v`` where its unit is discarded (a non-final ``;`` item or a
tail write) and a call of the unchecked ``_upd`` elsewhere.  The
measured difference between checked and unchecked code is therefore
the check *plus* the helper call a kept access pays, not the
comparison alone.
"""

from __future__ import annotations

from repro.lang.errors import (
    BoundsError,
    MatchFailure,
    RaisedException,
    TagError,
)


def _oob(i: int):  # pragma: no cover - exercised via generated code
    raise BoundsError(f"Subscript: index {i} out of bounds")


def _tag_err(what: str):  # pragma: no cover
    raise TagError(f"Empty: {what}")


def _match_fail(name: str):  # pragma: no cover
    raise MatchFailure(f"Match: no clause of {name} matched")


def _raise(value):
    """Raise a DML exception value (usable in expression position)."""
    raise RaisedException(value)


def _subc(a, i):
    """Checked array read (SML's safe ``sub``)."""
    if 0 <= i < len(a):
        return a[i]
    _oob(i)


def _updc(a, i, v):
    """Checked array write."""
    if not 0 <= i < len(a):
        _oob(i)
    a[i] = v
    return ()


def _upd(a, i, v):
    """Unchecked array write (kept as a helper so writes stay
    expressions in generated code)."""
    a[i] = v
    return ()


def _hdc(lst):
    if lst is None:
        _tag_err("hd of nil")
    return lst[0]


def _tlc(lst):
    if lst is None:
        _tag_err("tl of nil")
    return lst[1]


def _nth_checked(lst, n):
    if n < 0:
        # The interpreter's recursive nth recurses past nil on a
        # negative index; returning the head here would silently
        # diverge from that semantics.
        _tag_err(f"nth({n})")
    cell = lst
    i = n
    while i > 0:
        if cell is None:
            _tag_err(f"nth({n})")
        cell = cell[1]
        i -= 1
    if cell is None:
        _tag_err(f"nth({n})")
    return cell[0]


def _nth_unchecked(lst, n):
    cell = lst
    for _ in range(n):
        cell = cell[1]
    return cell[0]


def _compare(a, b):
    if a < b:
        return "LESS"
    if a == b:
        return "EQUAL"
    return "GREATER"


class Counters:
    """Dynamic check counters for instrumented generated code."""

    __slots__ = ("performed", "eliminated")

    def __init__(self) -> None:
        self.performed = 0
        self.eliminated = 0

    def reset(self) -> None:
        self.performed = 0
        self.eliminated = 0


#: Shared by all instrumented modules; reset before a counting run.
COUNTERS = Counters()


def _cp(value):
    """Pass-through marking one *performed* check."""
    COUNTERS.performed += 1
    return value


def _ce(value):
    """Pass-through marking one *eliminated* check."""
    COUNTERS.eliminated += 1
    return value


def from_pylist(items):
    """Python list -> compiled DML list value."""
    acc = None
    for item in reversed(items):
        acc = (item, acc)
    return acc


def to_pylist(value):
    """Compiled DML list value -> Python list."""
    items = []
    while value is not None:
        items.append(value[0])
        value = value[1]
    return items
