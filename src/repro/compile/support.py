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

The generated module imports its helpers from here.  A kept array
check is inline code, in every dialect: a read is
``(a[i] if len(a) > i >= 0 else _oob(a, i))`` and a write whose unit
is discarded is ``if not len(a) > i >= 0: _oob(a, i)`` followed by the
dialect's store, so a kept access costs the comparison alone and an
eliminated one drops it.  The checked helpers ``_subc``/``_updc``/
``_hdc``/``_tlc`` remain for first-class ``sub``/``update``/``hd``/
``tl`` values and for a write in expression position whose operands
are not names, literals or integer arithmetic.  The failure paths
(``_oob``, ``_empty``, ``_nth_checked``) raise the interpreter's
exceptions with the interpreter's messages.

The pure primitives that compiled code calls rather than inlines
(``_div``, ``_mod``, ``_compare``, ``_print_int``, ``_print_bool``)
are not here: the generated module imports them from
:mod:`repro.lang.prims`, the one definition the interpreter uses too.
"""

from __future__ import annotations

from repro.lang.errors import (
    MatchFailure,
    RaisedException,
    empty_error,
    nth_error,
    size_error,
    subscript_error,
)


def _oob(a, i: int):
    """The failure branch of a kept bound check."""
    raise subscript_error(i, a)


def _empty(op: str):
    """The failure branch of a kept ``hd``/``tl`` check."""
    raise empty_error(op)


def _match_fail(name: str):  # pragma: no cover
    raise MatchFailure(f"Match: no clause of {name} matched")


def _raise(value):
    """Raise a DML exception value (usable in expression position)."""
    raise RaisedException(value)


def _subc(a, i):
    """Checked array read (SML's safe ``sub``)."""
    if 0 <= i < len(a):
        return a[i]
    _oob(a, i)


def _updc(a, i, v):
    """Checked array write."""
    if not 0 <= i < len(a):
        _oob(a, i)
    a[i] = v
    return ()


def _upd(a, i, v):
    """Unchecked array write (kept as a helper so writes stay
    expressions in generated code)."""
    a[i] = v
    return ()


def _hdc(lst):
    if lst is None:
        _empty("hd")
    return lst[0]


def _tlc(lst):
    if lst is None:
        _empty("tl")
    return lst[1]


def _nth_checked(lst, n):
    if n < 0:
        # Returning the head here would silently diverge from the
        # interpreter, which rejects a negative index.
        raise nth_error(n)
    cell = lst
    i = n
    while i > 0:
        if cell is None:
            raise nth_error(n)
        cell = cell[1]
        i -= 1
    if cell is None:
        raise nth_error(n)
    return cell[0]


def _nth_unchecked(lst, n):
    cell = lst
    for _ in range(n):
        cell = cell[1]
    return cell[0]


def _size(n: int) -> int:
    """An ``array``/``tabulate`` size, rejected when negative."""
    if n < 0:
        raise size_error()
    return n


def _mk_list(n: int, v):
    """``array(n, v)`` as a Python list."""
    return [v] * _size(n)


def _tab_list(n: int, f):
    """``tabulate(n, f)`` as a Python list."""
    return [f(i) for i in range(_size(n))]


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
