"""Primitive operations and run-time check accounting.

Every name ``assert``ed in the prelude has its implementation here or,
for the pure primitives shared with compiled code (arithmetic,
comparisons, ``compare``, printing), in :mod:`repro.lang.prims`.
The array/list access primitives come in two flavours, mirroring the
paper's experimental setup (Section 4):

* the *dependent* ones (``sub``, ``update``, ``nth``, ``hd``, ``tl``)
  perform their safety check only when the call site was **not**
  discharged statically — each execution bumps either
  ``checks_performed`` or ``checks_eliminated``, which is how Table 2/3's
  "checks eliminated" column is measured;
* the ``*CK`` ones always check (the paper's safe ``sub`` /
  ``subPrefixCK`` style escape hatches).

An *unchecked* access genuinely skips the bounds test.  A negative
index then silently reads from the end of the Python list — a faithful
analogue of unsafe memory access — so eliminating a check that was not
actually proved is observably unsound, which the soundness tests
exploit.
"""

from __future__ import annotations

from dataclasses import MISSING, fields

from repro.eval import values as rv
from repro.eval.values import ConV, BuiltinV
from repro.lang import prims
from repro.lang.errors import (
    empty_error,
    nth_error,
    size_error,
    subscript_error,
)
from repro.records import record


@record
class RuntimeStats:
    """Dynamic counters for one program run."""

    bound_checks_performed: int = 0
    bound_checks_eliminated: int = 0
    tag_checks_performed: int = 0
    tag_checks_eliminated: int = 0
    applications: int = 0
    allocations: int = 0

    @property
    def checks_performed(self) -> int:
        return self.bound_checks_performed + self.tag_checks_performed

    @property
    def checks_eliminated(self) -> int:
        return self.bound_checks_eliminated + self.tag_checks_eliminated

    def reset(self) -> None:
        # Derived from the field list so a counter added later cannot
        # silently survive a reset (and skew Table 2/3's dynamic counts).
        for spec in fields(self):
            if spec.default_factory is not MISSING:  # type: ignore[misc]
                setattr(self, spec.name, spec.default_factory())
            else:
                setattr(self, spec.name, spec.default)


# -- arrays -----------------------------------------------------------------


def _length(arg, stats):
    return len(arg)


def _array(arg, stats):
    n, init = arg
    if n < 0:
        raise size_error()
    stats.allocations += 1
    return [init] * n


def _tabulate(arg, stats, apply):
    n, fn = arg
    if n < 0:
        raise size_error()
    stats.allocations += 1
    return [apply(fn, i) for i in range(n)]


def _sub(arg, stats, checked):
    arr, i = arg
    if checked:
        stats.bound_checks_performed += 1
        if not 0 <= i < len(arr):
            raise subscript_error(i, arr)
    else:
        stats.bound_checks_eliminated += 1
    return arr[i]


def _update(arg, stats, checked):
    arr, i, value = arg
    if checked:
        stats.bound_checks_performed += 1
        if not 0 <= i < len(arr):
            raise subscript_error(i, arr)
    else:
        stats.bound_checks_eliminated += 1
    arr[i] = value
    return rv.UNIT


def _sub_ck(arg, stats):
    arr, i = arg
    stats.bound_checks_performed += 1
    if not 0 <= i < len(arr):
        raise subscript_error(i, arr)
    return arr[i]


def _update_ck(arg, stats):
    arr, i, value = arg
    stats.bound_checks_performed += 1
    if not 0 <= i < len(arr):
        raise subscript_error(i, arr)
    arr[i] = value
    return rv.UNIT


# -- lists ------------------------------------------------------------------


def _nth(arg, stats, checked):
    lst, n = arg
    if checked:
        stats.tag_checks_performed += 1
        if n < 0:
            # Without this test a negative index fell through the
            # `while i > 0` walk and silently returned the head.
            raise nth_error(n)
        i = n
        cell = lst
        while i > 0:
            if cell.con != "::":
                raise nth_error(n)
            cell = cell.arg[1]
            i -= 1
        if cell.con != "::":
            raise nth_error(n)
        return cell.arg[0]
    stats.tag_checks_eliminated += 1
    cell = lst
    for _ in range(n):
        cell = cell.arg[1]  # unsafe: no tag test
    return cell.arg[0]


def _hd(arg, stats, checked):
    if checked:
        stats.tag_checks_performed += 1
        if arg.con != "::":
            raise empty_error("hd")
    else:
        stats.tag_checks_eliminated += 1
    return arg.arg[0]


def _tl(arg, stats, checked):
    if checked:
        stats.tag_checks_performed += 1
        if arg.con != "::":
            raise empty_error("tl")
    else:
        stats.tag_checks_eliminated += 1
    return arg.arg[1]


def _nth_ck(arg, stats):
    return _nth(arg, stats, True)


def _hd_ck(arg, stats):
    return _hd(arg, stats, True)


def _tl_ck(arg, stats):
    return _tl(arg, stats, True)


def make_builtins() -> dict[str, BuiltinV]:
    """The prelude's runtime, keyed by asserted name: the shared pure
    primitives of :data:`repro.lang.prims.PRIMS` and the array and list
    operations above."""
    table: dict[str, BuiltinV] = {}
    for name, (fn, arity, _) in prims.PRIMS.items():
        call = ((lambda arg, stats, fn=fn: fn(*arg)) if arity == 2
                else (lambda arg, stats, fn=fn: fn(arg)))
        table[name] = BuiltinV(name, call)
    table["compare"] = BuiltinV(
        "compare", lambda arg, stats: ConV(prims.compare(*arg)))
    table["length"] = BuiltinV("length", _length)
    table["array"] = BuiltinV("array", _array)
    table["tabulate"] = BuiltinV("tabulate", _tabulate, needs_apply=True)
    checkable = {
        "sub": (_sub, "bound"),
        "update": (_update, "bound"),
        "nth": (_nth, "tag"),
        "hd": (_hd, "tag"),
        "tl": (_tl, "tag"),
    }
    always = {
        "subCK": (_sub_ck, "bound"),
        "updateCK": (_update_ck, "bound"),
        "nthCK": (_nth_ck, "tag"),
        "hdCK": (_hd_ck, "tag"),
        "tlCK": (_tl_ck, "tag"),
    }
    for name, (fn, kind) in checkable.items():
        table[name] = BuiltinV(name, fn, check_kind=kind)
    for name, (fn, kind) in always.items():
        table[name] = BuiltinV(name, fn, check_kind=kind, always_checked=True)
    return table
