"""Diagnostics for every phase of the DML-lite pipeline.

The hierarchy distinguishes *where* an error arose (lexing, parsing, ML
typing, dependent elaboration, constraint solving, evaluation) because
the paper's central conservativity claim depends on the distinction: a
program rejected by :class:`MLTypeError` is not ML-typable at all, while
a program that only trips :class:`UnsolvedConstraint` obligations is
still a perfectly good ML program — it merely keeps its run-time checks.
"""

from __future__ import annotations

from repro.lang.source import DUMMY_SPAN, SourceFile, Span


class DMLError(Exception):
    """Base class for all errors raised by the repro pipeline."""

    #: The source the span points into, when the code that raised or
    #: passed the error on knows it (the corpus driver sets it, so an
    #: error names the program it came from).
    source: SourceFile | None = None

    def __init__(self, message: str, span: Span = DUMMY_SPAN) -> None:
        super().__init__(message)
        self.message = message
        self.span = span

    def render(self, source: SourceFile | None = None) -> str:
        """Format the error with a source excerpt when available:
        ``source``, else the error's own :attr:`source`."""
        if source is None:
            source = self.source
        if source is None or self.span == DUMMY_SPAN:
            return f"{type(self).__name__}: {self.message}"
        head = f"{source.describe(self.span)}: {type(self).__name__}: {self.message}"
        return f"{head}\n{source.excerpt(self.span)}"


class LexError(DMLError):
    """Malformed token in the source text."""


class ParseError(DMLError):
    """Syntactically invalid program."""


class MLTypeError(DMLError):
    """Phase-1 failure: the program is not well-typed in plain ML."""


class ElabError(DMLError):
    """Phase-2 failure: dependent annotations are malformed or
    structurally incompatible with the ML types (e.g. a ``typeref``
    whose constructor types do not erase to the declared ML types)."""


class SortError(ElabError):
    """An index expression is ill-sorted (e.g. boolean used as int)."""


class NonLinearConstraint(ElabError):
    """A generated constraint falls outside linear arithmetic.

    Mirrors Section 3.2: "We currently reject non-linear constraints
    rather than postponing them as hard constraints."
    """


class UnsolvedConstraint(DMLError):
    """A proof obligation the solver could not discharge.

    This is not fatal for compilation: the corresponding access simply
    keeps its run-time check.  It *is* fatal when the user asked for a
    fully-checked elaboration (``require_all=True``).
    """


class EvalError(DMLError):
    """Run-time error raised by the interpreter."""


class BoundsError(EvalError):
    """Array subscript out of bounds (SML's ``Subscript`` exception)."""


class TagError(EvalError):
    """List tag violation, e.g. ``hd nil`` (SML's ``Empty``)."""


class MatchFailure(EvalError):
    """No pattern-match clause applied (SML's ``Match``)."""


class RaisedException(Exception):
    """A DML ``raise`` in flight, carrying the exception value.

    Deliberately *not* a :class:`DMLError`: an uncaught user exception
    escaping the program is a normal outcome the embedder sees, not a
    malfunction of the pipeline.
    """

    def __init__(self, value) -> None:
        super().__init__(f"uncaught exception: {value!r}")
        self.value = value
