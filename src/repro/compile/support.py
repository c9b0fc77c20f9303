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
(``_oob``, ``_empty``, ``_nth_checked`` and the four match failures)
raise the interpreter's exceptions with the interpreter's messages; a
match failure shows the unmatched values as the interpreter does.

The pure primitives that compiled code calls rather than inlines
(``_div``, ``_mod``, ``_compare``, ``_print_int``, ``_print_bool``)
are not here: the generated module imports them from
:mod:`repro.lang.prims`, the one definition the interpreter uses too.
"""

from __future__ import annotations

from repro.lang.errors import (
    RaisedException,
    bind_error,
    case_error,
    clause_error,
    empty_error,
    fn_error,
    nth_error,
    size_error,
    subscript_error,
)
from repro.lang.source import Span


def _oob(a, i: int):
    """The failure branch of a kept bound check."""
    raise subscript_error(i, a)


def _empty(op: str):
    """The failure branch of a kept ``hd``/``tl`` check."""
    raise empty_error(op)


def show(value, shape, data: dict) -> str:
    """``value`` of compiled code as the interpreter renders the same
    value (``repro.eval.values.render``).  ``shape`` and ``data`` say
    how compiled code represents its ML type; see
    :func:`repro.compile.pycodegen.value_shape`."""
    if shape is None:
        # A base type or a type variable: read the value's Python type.
        # A list cell and a constructor with an argument are tuples
        # there, so under a type variable they show as tuples.
        if callable(value):
            shape = ("fn",)
        elif hasattr(value, "buf") or isinstance(value, list):
            shape = ("array", None)
        elif isinstance(value, tuple):
            shape = ("*", *[None] * len(value))
        elif isinstance(value, str):
            return value  # a constructor without an argument
    kind = shape[0] if shape else None
    if kind == "*":
        return f"({', '.join(show(v, s, data) for v, s in zip(value, shape[1:]))})"
    if kind == "array":
        items = getattr(value, "buf", value)  # a packed or numpy cell
        return "[|" + ", ".join(
            show(v.item() if hasattr(v, "item") else v, shape[1], data)
            for v in items) + "|]"
    if kind == "list":
        items = []
        while value is not None:
            head, value = value
            items.append(show(head, shape[1], data))
        return f"[{', '.join(items)}]"
    if kind == "fn":
        # A ``fun`` (or its partial application) shows as the
        # interpreter's closures do, an ``fn`` or builtin as ``<fn>``.
        named = getattr(value, "__name__", "").startswith(("d_", "_curry"))
        return "<fun>" if named else "<fn>"
    if kind == "data":
        if isinstance(value, str):
            return value
        tag, arg = value
        arg_shape = data[shape[1]][tag]
        text = show(arg, arg_shape, data)
        return tag + (text if arg_shape and arg_shape[0] == "*" else f"({text})")
    from repro.eval.values import render

    return render(value)


def _clause_fail(name: str, args: tuple, shapes: tuple, data: dict):
    """No clause of the function ``name`` matched ``args``."""
    raise clause_error(name, ", ".join(
        show(a, s, data) for a, s in zip(args, shapes)))


def _case_fail(value, shape, data: dict, start: int, end: int):
    """No clause of the ``case`` at ``start``-``end`` matched ``value``."""
    raise case_error(show(value, shape, data), Span(start, end))


def _fn_fail():
    raise fn_error()


def _bind_fail(start: int, end: int):
    """The pattern of the ``val`` at ``start``-``end`` did not match."""
    raise bind_error(Span(start, end))


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
