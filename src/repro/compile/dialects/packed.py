"""The ``packed`` dialect: monomorphic int arrays as ``array('q')``.

Int-valued DML arrays are stored in :class:`array.array` typecode
``'q'`` buffers (contiguous C ``int64``), so an access site the solver
proved safe compiles to a genuinely unchecked C-level read with no
Python-object hop per element — the representation the paper's
Table 2/3 numbers assume.  Every array value is a
:class:`~repro.compile.dialects.buffers.Buf` cell; int payloads in
int64 range pack into ``array('q')``, everything else (bools, tuples,
closures, polymorphic instantiations) stays a plain Python list inside
the same cell, so the dialect is always safe to select.

Packing decisions happen at *construction*: ``array(n, v)`` and
``tabulate(n, f)`` pack iff every element is an int in ``int64`` range
(``bool`` is deliberately excluded — packing would collapse ``True``
to ``1`` and break output parity with ``plain``).  Empty arrays from
either constructor share one representation (an empty plain list in
the cell), so ``array(0, v)`` and ``tabulate(0, f)`` are
indistinguishable, exactly as in ``plain``.

A later ``update`` of an out-of-``int64``-range value *repacks on
overflow*: the buffer demotes to a plain list holding the bignum —
every alias observes the demotion through the shared cell — so
behaviour matches ``plain`` bit for bit instead of raising
``OverflowError``.  The differential fuzzer (:mod:`repro.fuzz`)
guards this parity.
"""

from __future__ import annotations

from array import array as _pyarray
from typing import Any

from repro.compile.dialects.base import map_structure, parens
from repro.compile.dialects.buffers import Buf
from repro.compile.dialects.plain import PlainDialect
from repro.compile.support import _size

_I64_MIN = -(2 ** 63)
_I64_MAX = 2 ** 63 - 1


def _fits(x: Any) -> bool:
    return type(x) is int and _I64_MIN <= x <= _I64_MAX


def _mk_arr(n: int, v: Any) -> Buf:
    """Runtime ``array(n, v)`` constructor: pack when monomorphic int."""
    if _size(n) == 0:
        return Buf([])
    if _fits(v):
        return Buf(_pyarray("q", (v,)) * n)
    return Buf([v] * n)


def _mk_tab(n: int, f: Any) -> Buf:
    """Runtime ``tabulate(n, f)`` constructor."""
    items = [f(_i) for _i in range(_size(n))]
    if items and all(_fits(x) for x in items):
        return Buf(_pyarray("q", items))
    return Buf(items)


def _upd_pk(a: Buf, i: int, v: Any) -> tuple:
    """Unchecked packed write with repack-on-overflow."""
    try:
        a.buf[i] = v
    except OverflowError:
        a.demote()[i] = v
    return ()


class PackedDialect(PlainDialect):
    name = "packed"
    description = "array('q') int64 buffers for monomorphic int arrays"

    # Accesses go straight at the cell slot, so a proved read costs one
    # attribute load plus the C-level buffer index, and a kept one adds
    # the inline bound test on ``len(a.buf)``.

    def prelude(self) -> str:
        return (
            "from repro.compile.dialects.packed import "
            "_mk_arr, _mk_tab, _upd_pk\n"
        )

    def emit_read(self, array: str, index: str) -> str:
        return f"{parens(array)}.buf[{index}]"

    def emit_write(self, array: str, index: str, value: str) -> str:
        return f"_upd_pk({array}, {index}, {value})"

    #: Writes repack on overflow, so none becomes a bare store.
    emit_store = None

    def emit_length(self, array: str) -> str:
        return f"len({parens(array)}.buf)"

    def emit_make(self, size: str, init: str) -> str:
        return f"_mk_arr({size}, {init})"

    def emit_tabulate(self, size: str, fn: str) -> str:
        return f"_mk_tab({size}, {fn})"

    def builtin_overrides(self) -> dict[str, str]:
        # Names must agree with pycodegen._builtin_value_name.  The
        # other array builtins (sub/update/length and the CK variants)
        # inherit the generic helpers, which work on Bufs through the
        # sequence protocol — update included, since Buf.__setitem__
        # repacks on overflow.
        return {
            "array": "_v_array = lambda _p: _mk_arr(_p[0], _p[1])",
            "tabulate": "_v_tabulate = lambda _p: _mk_tab(_p[0], _p[1])",
        }

    def adapt_value(self, value: Any) -> Any:
        def pack(v, walk):
            if isinstance(v, Buf):
                v = list(v.buf)
            if v and all(_fits(x) for x in v):
                return Buf(_pyarray("q", v))
            return Buf([walk(x) for x in v])

        return map_structure(value, pack)

    def extract_value(self, value: Any) -> Any:
        def unpack(v, walk):
            if isinstance(v, Buf):
                v = v.buf
            if isinstance(v, _pyarray):
                return list(v)
            return [walk(x) for x in v]

        return map_structure(
            value, unpack, seq_types=(list, _pyarray, Buf)
        )
