"""Source text handling: positions, spans and line/column mapping.

Every token and AST node produced by :mod:`repro.lang` carries a
:class:`Span` into the original source so that diagnostics (type errors,
unsolved constraints) can point at the offending code, mirroring how the
paper's prototype reports unsolved constraints back to the programmer.
"""

from __future__ import annotations

import bisect
from dataclasses import field

from repro.records import record


@record(frozen=True)
class Span:
    """A half-open byte range ``[start, end)`` in a source file."""

    start: int
    end: int

    def merge(self, other: "Span") -> "Span":
        """The smallest span covering both ``self`` and ``other``."""
        return Span(min(self.start, other.start), max(self.end, other.end))

    @staticmethod
    def point(offset: int) -> "Span":
        return Span(offset, offset)


DUMMY_SPAN = Span(0, 0)


@record
class SourceFile:
    """Source text plus a lazily built line index for error reporting."""

    text: str
    name: str = "<input>"
    _line_starts: list[int] = field(default_factory=list, repr=False)

    def _ensure_index(self) -> None:
        if not self._line_starts:
            starts = [0]
            for i, ch in enumerate(self.text):
                if ch == "\n":
                    starts.append(i + 1)
            self._line_starts = starts

    def line_col(self, offset: int) -> tuple[int, int]:
        """1-based (line, column) of a byte offset."""
        self._ensure_index()
        offset = max(0, min(offset, len(self.text)))
        line = bisect.bisect_right(self._line_starts, offset) - 1
        return line + 1, offset - self._line_starts[line] + 1

    def line_text(self, line: int) -> str:
        """The text of a 1-based line, without its trailing newline."""
        self._ensure_index()
        if not 1 <= line <= len(self._line_starts):
            return ""
        start = self._line_starts[line - 1]
        end = self.text.find("\n", start)
        if end < 0:
            end = len(self.text)
        return self.text[start:end]

    def describe(self, span: Span) -> str:
        """Human readable ``file:line:col`` prefix for a span."""
        line, col = self.line_col(span.start)
        return f"{self.name}:{line}:{col}"

    def excerpt(self, span: Span) -> str:
        """A two-line caret excerpt pointing at ``span``."""
        line, col = self.line_col(span.start)
        text = self.line_text(line)
        width = max(1, min(span.end, len(self.text)) - span.start)
        if span.end > span.start:
            end_line, end_col = self.line_col(span.end)
            if end_line == line:
                width = max(1, end_col - col)
            else:
                width = max(1, len(text) - col + 1)
        caret = " " * (col - 1) + "^" * width
        return f"{text}\n{caret}"
