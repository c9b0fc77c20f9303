"""The ``numpy`` dialect: optional ``int64`` ndarray storage.

Registered unconditionally but *available* only when numpy imports;
``get_dialect("numpy")`` raises :class:`DialectError` with the import
failure otherwise, and nothing in the core ever imports numpy — the
import is attempted lazily on first availability probe, so plain and
packed compiles never pay numpy's import cost.

Int-valued arrays live in :class:`~repro.compile.dialects.buffers.NpBuf`
cells holding ``np.int64`` ndarrays: construction via ``np.full`` is a
single C loop (the closest thing to a vector-width kernel the
element-at-a-time generated code can exploit today; fusing whole
access loops into vector ops would need a loop-level IR and is
deliberately out of scope).

Behaviour parity with ``plain`` is maintained at both ends of the
int64 range:

* **reads unbox** — an element read returns a Python ``int``, never an
  ``np.int64`` scalar, because numpy scalar arithmetic silently
  *wraps* past 2^63 where Python ints grow into bignums (the
  differential fuzzer caught exactly this divergence);
* **writes repack on overflow** — updating an out-of-int64-range
  value demotes the cell to a plain list holding the bignum, matching
  ``plain`` instead of raising ``OverflowError``;
* **empty arrays are uniform** — ``array(0, v)`` and
  ``tabulate(0, f)`` both produce an empty plain-list cell.
"""

from __future__ import annotations

from typing import Any

from repro.compile.dialects.base import map_structure, parens
from repro.compile.dialects.buffers import Buf, NpBuf
from repro.compile.dialects.plain import PlainDialect
from repro.compile.support import _size

_I64_MIN = -(2 ** 63)
_I64_MAX = 2 ** 63 - 1

_np: Any = None
_np_error: str | None = None


def _numpy() -> Any:
    """Import numpy once, lazily; remember failure."""
    global _np, _np_error
    if _np is None and _np_error is None:
        try:
            import numpy
            _np = numpy
        except ImportError as exc:  # pragma: no cover - depends on env
            _np_error = str(exc)
    return _np


def _fits(x: Any) -> bool:
    return type(x) is int and _I64_MIN <= x <= _I64_MAX


def _np_mk(n: int, v: Any) -> NpBuf:
    np = _numpy()
    if _size(n) == 0:
        return NpBuf([])
    if np is not None and _fits(v):
        return NpBuf(np.full(n, v, dtype=np.int64))
    return NpBuf([v] * n)


def _np_tab(n: int, f: Any) -> NpBuf:
    np = _numpy()
    items = [f(_i) for _i in range(_size(n))]
    if np is not None and items and all(_fits(x) for x in items):
        return NpBuf(np.asarray(items, dtype=np.int64))
    return NpBuf(items)


def _sub_np(a: NpBuf, i: int) -> Any:
    """Unchecked read, unboxing ndarray elements to Python ints."""
    buf = a.buf
    if type(buf) is list:
        return buf[i]
    return buf[i].item()


def _upd_np(a: NpBuf, i: int, v: Any) -> tuple:
    """Unchecked write with repack-on-overflow."""
    try:
        a.buf[i] = v
    except OverflowError:
        a.demote()[i] = v
    return ()


class NumpyDialect(PlainDialect):
    name = "numpy"
    description = "numpy int64 ndarrays (optional; guarded import)"

    def available(self) -> bool:
        return _numpy() is not None

    def unavailable_reason(self) -> str | None:
        if self.available():
            return None
        return f"numpy is not importable ({_np_error})"

    def prelude(self) -> str:
        return (
            "from repro.compile.dialects.numpy_backend import "
            "_np_mk, _np_tab, _sub_np, _upd_np\n"
        )

    def emit_read(self, array: str, index: str) -> str:
        # Reads go through the unboxing helper: a bare ``a.buf[i]``
        # would leak an np.int64 scalar whose arithmetic wraps instead
        # of promoting to a bignum.
        return f"_sub_np({array}, {index})"

    def emit_write(self, array: str, index: str, value: str) -> str:
        return f"_upd_np({array}, {index}, {value})"

    #: Writes repack on overflow, so none becomes a bare store.
    emit_store = None

    def emit_length(self, array: str) -> str:
        return f"len({parens(array)}.buf)"

    def emit_make(self, size: str, init: str) -> str:
        return f"_np_mk({size}, {init})"

    def emit_tabulate(self, size: str, fn: str) -> str:
        return f"_np_tab({size}, {fn})"

    def builtin_overrides(self) -> dict[str, str]:
        # The first-class ``sub``/``update`` builtins keep the generic
        # checked helpers: _subc reads through NpBuf.__getitem__ (which
        # unboxes) and _updc writes through NpBuf.__setitem__ (which
        # repacks on overflow), so only the constructors change.
        return {
            "array": "_v_array = lambda _p: _np_mk(_p[0], _p[1])",
            "tabulate": "_v_tabulate = lambda _p: _np_tab(_p[0], _p[1])",
        }

    def adapt_value(self, value: Any) -> Any:
        np = _numpy()

        def pack(v, walk):
            if isinstance(v, Buf):
                v = list(v.buf)
            if np is not None and v and all(_fits(x) for x in v):
                return NpBuf(np.asarray(v, dtype=np.int64))
            return NpBuf([walk(x) for x in v])

        return map_structure(value, pack)

    def extract_value(self, value: Any) -> Any:
        np = _numpy()
        seq: tuple = (list, Buf)
        if np is not None:
            seq = (list, Buf, np.ndarray)

        def unpack(v, walk):
            if isinstance(v, Buf):
                v = v.buf
            if np is not None and isinstance(v, np.ndarray):
                return v.tolist()
            return [walk(x) for x in v]

        def leaf(v):
            if np is not None and isinstance(v, np.integer):
                return int(v)
            if np is not None and isinstance(v, np.bool_):
                return bool(v)
            return v

        return map_structure(value, unpack, seq_types=seq, leaf=leaf)
