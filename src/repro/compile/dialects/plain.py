"""The ``plain`` dialect: Python lists, the parity baseline.

Arrays are Python lists.  A proved read is a bare ``a[i]``, and a
proved write whose unit is discarded is a bare ``a[i] = v``
(:meth:`PlainDialect.emit_store`).  A kept access is the same code
behind an inline bound test, which the core builds:
``(a[i] if len(a) > i >= 0 else _oob(a, i))`` for a read.  Every other
dialect is differentially tested against this one.
"""

from __future__ import annotations

from repro.compile.dialects.base import Dialect, parens


class PlainDialect(Dialect):
    name = "plain"
    description = "Python lists with inline bound tests (parity baseline)"

    def emit_read(self, array: str, index: str) -> str:
        return f"{parens(array)}[{index}]"

    def emit_write(self, array: str, index: str, value: str) -> str:
        return f"_upd({array}, {index}, {value})"

    def emit_store(self, array: str, index: str, value: str) -> str:
        return f"{parens(array)}[{index}] = {value}"

    def emit_make(self, size: str, init: str) -> str:
        return f"_mk_list({size}, {init})"

    def emit_tabulate(self, size: str, fn: str) -> str:
        return f"_tab_list({size}, {fn})"
