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


# Run-time faults of the primitives.  The interpreter
# and compiled code both raise these, so a fault reads the same in
# ``repro run`` and ``repro compile-and-run``; callers build one only on
# the failure path.


def subscript_error(index: int, array) -> BoundsError:
    """``index`` is not a valid subscript of ``array``."""
    return BoundsError(f"Subscript: index {index} out of bounds for array "
                       f"of size {len(array)}")


def nth_error(n: int) -> TagError:
    """``nth(l, n)`` found no element ``n``."""
    reason = "negative index" if n < 0 else "beyond end of list"
    return TagError(f"Subscript: nth({n}) {reason}")


def empty_error(op: str) -> TagError:
    """``op`` (``hd`` or ``tl``) applied to ``nil``."""
    return TagError(f"Empty: {op} of nil")


def size_error() -> EvalError:
    """``array``/``tabulate`` asked for a negative size."""
    return EvalError("Size: negative array size")


def division_error(op: str) -> EvalError:
    """``op`` (``div`` or ``mod``) by zero."""
    return EvalError("Div: division by zero" if op == "div"
                     else "Mod: modulo by zero")


# Match failures.  The callers pass the unmatched values already
# rendered (``repro.eval.values.render`` or its compiled twin) and the
# span the interpreter reports.


def clause_error(name: str, args: str) -> MatchFailure:
    """No clause of the function ``name`` matched its arguments."""
    return MatchFailure(f"Match: no clause of {name} matched {args}")


def case_error(scrutinee: str, span: Span) -> MatchFailure:
    """No clause of the ``case`` at ``span`` matched ``scrutinee``."""
    return MatchFailure(f"Match: no case clause matched {scrutinee}", span)


def fn_error() -> MatchFailure:
    """An ``fn`` applied to a value its pattern does not match."""
    return MatchFailure("Match: fn pattern did not match")


def bind_error(span: Span) -> MatchFailure:
    """The pattern of the ``val`` at ``span`` did not match."""
    return MatchFailure("Bind: val pattern did not match", span)


class RaisedException(Exception):
    """A DML ``raise`` in flight, carrying the exception value.

    Deliberately *not* a :class:`DMLError`: an uncaught user exception
    escaping the program is a normal outcome the embedder sees, not a
    malfunction of the pipeline.
    """

    def __init__(self, value) -> None:
        super().__init__(f"uncaught exception: {value!r}")
        self.value = value
