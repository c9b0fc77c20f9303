"""Demotable array buffers: identity-stable storage that can repack.

The packed and numpy dialects store int-valued DML arrays in compact
int64 buffers (``array('q')`` / ``np.int64`` ndarrays).  Those buffers
cannot hold every Python int: writing a value outside the int64 range
raises ``OverflowError`` where the ``plain`` dialect would simply
store the bignum — a *behaviour* divergence, not a representation one,
and exactly the kind of bug the differential fuzzer
(:mod:`repro.fuzz`) exists to catch.

Because DML arrays are aliased freely (passed to functions, captured
by closures), the storage cannot be swapped by rebinding a variable —
every alias must observe the demotion.  So each dialect array is a
:class:`Buf`: a one-slot cell holding either the compact buffer or a
plain Python list.  A write whose value does not fit *repacks on
overflow*: the compact buffer is demoted to a plain list (preserving
every element as a Python int) and the write retries, so behaviour
matches ``plain`` exactly and the fast representation is kept for the
(overwhelmingly common) programs that never leave int64.

Reads stay cheap: the generated code accesses ``a.buf[i]`` directly
(one slot load; no method dispatch) in the packed dialect, kept reads
included, and the dunder protocol below keeps the generic checked
helpers (``_subc``/``_updc``/``len``) that first-class ``sub`` and
``update`` values call working unchanged on any Buf.

:class:`NpBuf` additionally unboxes reads: an ``np.int64`` scalar
leaking into generated arithmetic silently *wraps* past 2^63 where
plain Python ints grow into bignums — so every element read from an
ndarray-backed Buf is converted back to a Python int at the access.
"""

from __future__ import annotations

from typing import Any


class Buf:
    """A demotable array cell: compact int64 storage or a plain list.

    ``buf`` is the only slot; aliases share the cell, so demotion by
    one writer is seen by every reader.
    """

    __slots__ = ("buf",)

    def __init__(self, buf: Any) -> None:
        self.buf = buf

    # -- demotion ---------------------------------------------------------

    def _demoted(self) -> list:
        """The current elements as a plain list of Python values."""
        return list(self.buf)

    def demote(self) -> list:
        """Switch to plain-list storage (idempotent); returns the list."""
        buf = self.buf
        if type(buf) is not list:
            self.buf = buf = self._demoted()
        return buf

    # -- sequence protocol -------------------------------------------------
    #
    # The generic runtime helpers (_subc/_updc/_upd, len) drive Bufs
    # through these; generated accesses bypass them via direct
    # ``a.buf[i]`` emission in the dialects.

    def __len__(self) -> int:
        return len(self.buf)

    def __getitem__(self, i: int) -> Any:
        return self.buf[i]

    def __setitem__(self, i: int, value: Any) -> None:
        try:
            self.buf[i] = value
        except OverflowError:
            # Repack-on-overflow: demote to a plain list and retry, so
            # an out-of-int64-range update behaves exactly like plain.
            self.demote()[i] = value

    def __iter__(self):
        return iter(self.buf)

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, Buf):
            return list(self.buf) == list(other.buf)
        return NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.buf!r})"


class NpBuf(Buf):
    """A Buf over an ``np.int64`` ndarray (or a demoted plain list).

    Reads unbox numpy scalars back to Python ints: int64 scalar
    arithmetic wraps on overflow (``2^62 + 2^62`` goes negative) where
    every other dialect promotes to a bignum, so letting ``np.int64``
    values escape into generated arithmetic breaks behaviour parity
    even when every *stored* element fits.
    """

    __slots__ = ()

    def _demoted(self) -> list:
        buf = self.buf
        # ndarray.tolist() yields Python ints; list(ndarray) would
        # yield np.int64 scalars and leak wrapping arithmetic.
        return buf.tolist() if hasattr(buf, "tolist") else list(buf)

    def __getitem__(self, i: int) -> Any:
        buf = self.buf
        if type(buf) is list:
            return buf[i]
        return buf[i].item()
