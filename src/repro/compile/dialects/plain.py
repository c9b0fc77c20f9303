"""The ``plain`` dialect: Python lists, the parity baseline.

Arrays are Python lists.  A proved read is a bare ``a[i]``, and a
proved write whose unit is discarded is a bare ``a[i] = v``
(:meth:`PlainDialect.emit_store`); an unproved access calls the
checked ``_subc``/``_updc`` helper.  Every other dialect is
differentially tested against this one.
"""

from __future__ import annotations

import re

from repro.compile.dialects.base import Dialect, parens

#: ``name``, ``name[0]``, ``name[0][1]`` … are already callable/atomic.
_ATOM_CHAIN = re.compile(r"\w+(\[\w+\])*")


def call_position(code: str) -> str:
    """Wrap ``code`` so it can be called with ``(...)`` appended."""
    if _ATOM_CHAIN.fullmatch(code):
        return code
    return parens(code)


class PlainDialect(Dialect):
    name = "plain"
    description = "Python lists with checked-helper calls (parity baseline)"

    def emit_read(self, array: str, index: str, checked: bool) -> str:
        if checked:
            return f"_subc({array}, {index})"
        return f"{parens(array)}[{index}]"

    def emit_write(self, array: str, index: str, value: str,
                   checked: bool) -> str:
        helper = "_updc" if checked else "_upd"
        return f"{helper}({array}, {index}, {value})"

    def emit_store(self, array: str, index: str, value: str) -> str:
        return f"{parens(array)}[{index}] = {value}"

    def emit_make(self, size: str, init: str) -> str:
        return f"([{init}] * {size})"

    def emit_tabulate(self, size: str, fn: str) -> str:
        return f"[{call_position(fn)}(_ti) for _ti in range({size})]"
