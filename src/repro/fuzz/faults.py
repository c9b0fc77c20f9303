"""Deliberately broken dialect variants (fuzzer self-test).

The acceptance bar for a bug-finding subsystem is that it finds bugs:
these dialects re-introduce, behind an opt-in flag, exactly the
defects the fuzzer was built to catch, so CI can assert that a bounded
run flags them and the shrinker reduces the repro below twenty source
lines.  They are never registered in the dialect registry — only
``repro fuzz --fault NAME`` and the self-tests construct them, via
:data:`FAULTS`.

* ``overflow-update`` — the packed dialect with repack-on-overflow
  removed: an ``update`` whose value leaves int64 raises
  ``OverflowError`` instead of demoting the buffer;
* ``oob-read`` — the packed dialect with every *eliminated* read
  shifted by one: a certificate-gated build returns wrong values (or
  raises ``IndexError`` at the boundary) exactly where the solver
  eliminated a check, the worst-case miscompile the certificate is
  supposed to prevent.  Kept reads stay healthy;
* ``kept-check`` — the plain dialect with the lower bound (``>= 0``)
  dropped from the inline bound test of every kept check, so a
  negative index wraps silently where it should raise ``BoundsError``.

``overflow-update`` overrides :meth:`prelude` to shadow the healthy
runtime helper with a local buggy definition inside the generated
module — the real helpers in :mod:`repro.compile.dialects.packed` stay
intact.  The other two override the emission hooks they break.
"""

from __future__ import annotations

from repro.compile.dialects.base import parens
from repro.compile.dialects.packed import PackedDialect
from repro.compile.dialects.plain import PlainDialect


class OverflowUpdateFault(PackedDialect):
    """Packed writes without the repack-on-overflow catch."""

    name = "packed@overflow-update"
    description = "packed minus repack-on-overflow (self-test fault)"

    def prelude(self) -> str:
        return (
            "from repro.compile.dialects.packed import _mk_arr, _mk_tab\n"
            "def _upd_pk(a, i, v):\n"
            "    a.buf[i] = v\n"
            "    return ()\n"
        )


class OobReadFault(PackedDialect):
    """Eliminated packed reads displaced by one element."""

    name = "packed@oob-read"
    description = "packed with off-by-one unchecked reads (self-test fault)"

    def emit_read(self, array: str, index: str) -> str:
        return f"{parens(array)}.buf[({index}) + 1]"

    #: A kept check still reads the element it tested.
    emit_guarded_read = PackedDialect.emit_read


class KeptCheckFault(PlainDialect):
    """Plain kept checks that let a negative index through."""

    name = "plain@kept-check"
    description = "plain whose kept checks miss negative indices (self-test fault)"

    def emit_in_bounds(self, array: str, index: str) -> str:
        return f"{self.emit_length(array)} > {index}"


FAULTS = {
    "overflow-update": OverflowUpdateFault,
    "oob-read": OobReadFault,
    "kept-check": KeptCheckFault,
}


def get_fault(name: str):
    """Instantiate a fault dialect by key (KeyError on unknown)."""
    return FAULTS[name]()
