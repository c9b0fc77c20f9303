"""The ``Dialect`` interface: pluggable value representation for
compiled code.

The code generator (:mod:`repro.compile.pycodegen`) owns everything
about *control* — binder versioning, match compilation, self-tail-call
loop conversion — and delegates everything about *array values* to a
dialect: how arrays are represented at run time, what a read, write,
length, or construction compiles to, and how Python-native benchmark
inputs are converted into that representation.

Soundness is owned by the *caller*, not the dialect: the set of
unchecked sites handed to the code generator comes from the
elimination plan (:func:`repro.compile.elim.plan_elimination`), which
only ever contains sites whose proof obligations discharged under the
structural-goal gate.  A dialect is consulted per site through
:meth:`Dialect.may_eliminate` and may *keep* additional checks (for
example because its representation cannot honor an unchecked access),
but it is never offered a kept site in the first place — so no choice
of dialect can ever make a program less safe than the plan.

Non-array values (DML lists as ``(head, tail)`` pairs, datatype tags,
tuples, integers) share one representation across every dialect; only
array payloads vary.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any


class DialectError(ValueError):
    """Unknown or unavailable dialect requested by name."""


def parens(code: str) -> str:
    """Wrap ``code`` for safe embedding unless it is already atomic."""
    if (
        code.isidentifier()
        or code.isdigit()
        or (code.startswith("(") and code.endswith(")"))
    ):
        return code
    return f"({code})"


class Dialect(ABC):
    """One value-representation backend for generated Python.

    Emission methods return *expression strings* spliced into the
    generated module.  An access's operands are names, literals or
    integer arithmetic over them, so they may be mentioned more than
    once without a visible difference; a constructor's operands are
    arbitrary expressions, to be evaluated once each, in order.

    A dialect emits only *unchecked* accesses.  The core builds every
    kept check from them: a read is
    ``(R if T else _oob(a, i))`` and a discarded write is
    ``if not T: _oob(a, i)`` followed by the store, where ``R`` is
    :meth:`emit_guarded_read` and ``T`` is :meth:`emit_in_bounds`.
    """

    #: Registry name (``--dialect`` on the CLI).
    name: str = "abstract"
    #: One-line description for ``--help`` and docs.
    description: str = ""

    # -- availability -----------------------------------------------------

    def available(self) -> bool:
        """Can this dialect run in the current process?"""
        return True

    def unavailable_reason(self) -> str | None:
        return None

    # -- per-site gate ----------------------------------------------------

    def may_eliminate(self, site: Any) -> bool:
        """May this dialect emit an *unchecked* access for a site the
        elimination plan already proved?  Returning ``False`` keeps the
        run-time check — a dialect can only ever add checks, never
        remove one the plan kept."""
        return True

    # -- code emission ----------------------------------------------------

    def prelude(self) -> str:
        """Extra import/setup lines for the generated module header."""
        return ""

    @abstractmethod
    def emit_read(self, array: str, index: str) -> str:
        """An unchecked read ``sub(array, index)``."""

    def emit_guarded_read(self, array: str, index: str) -> str:
        """The read a kept check makes once its bound test passed: the
        unchecked read in every dialect.  A fault dialect that breaks
        :meth:`emit_read` keeps this one healthy, so that only
        eliminated reads go wrong."""
        return self.emit_read(array, index)

    @abstractmethod
    def emit_write(self, array: str, index: str, value: str) -> str:
        """An unchecked write ``update(array, index, value)`` (evaluates
        to unit)."""

    #: ``emit_store(array, index, value)``: an unchecked write as a
    #: statement, used where the write's unit is discarded.  ``None``
    #: means the dialect has no such form and such a write is an
    #: :meth:`emit_write` expression statement.
    emit_store: Any = None

    def emit_length(self, array: str) -> str:
        return f"len({array})"

    def emit_in_bounds(self, array: str, index: str) -> str:
        """The bound test of a kept check.  It evaluates ``array``
        before ``index``: the core may pass operands that bind a
        temporary on first evaluation."""
        return f"{self.emit_length(array)} > {index} >= 0"

    @abstractmethod
    def emit_make(self, size: str, init: str) -> str:
        """The ``array(size, init)`` constructor."""

    @abstractmethod
    def emit_tabulate(self, size: str, fn: str) -> str:
        """The ``tabulate(size, fn)`` constructor."""

    def builtin_overrides(self) -> dict[str, str]:
        """First-class builtin definitions this dialect replaces
        (used instead of the ones the core builds)."""
        return {}

    # -- runtime value adaptation ----------------------------------------

    def adapt_value(self, value: Any) -> Any:
        """Python-native value -> this dialect's representation."""
        return value

    def extract_value(self, value: Any) -> Any:
        """This dialect's representation -> Python-native value."""
        return value

    def adapt_args(self, args: tuple) -> tuple:
        return tuple(self.adapt_value(a) for a in args)


# ---------------------------------------------------------------------------
# Structure-walking helpers shared by the non-plain dialects
# ---------------------------------------------------------------------------


def map_structure(value: Any, convert_seq: Any,
                  seq_types: tuple = (list,), leaf: Any = None) -> Any:
    """Rebuild ``value`` with ``convert_seq`` applied to every array
    payload (any instance of ``seq_types``) and ``leaf`` to every
    scalar; tuples are rebuilt element-wise.

    DML list values are ``(head, tail)`` cons pairs ending in ``None``;
    their spines are walked *iteratively* so a million-element list
    never overflows the recursion limit.  Rebuilding an ambiguous
    nested pair as a cons chain is harmless — the structures are
    identical — so no tagging is needed to tell them apart.
    """

    def walk(v: Any) -> Any:
        if isinstance(v, seq_types):
            return convert_seq(v, walk)
        if isinstance(v, tuple):
            return _walk_tuple(v, walk)
        return leaf(v) if leaf is not None else v

    return walk(value)


def _is_cons(v: Any) -> bool:
    return isinstance(v, tuple) and len(v) == 2 and (
        v[1] is None or (isinstance(v[1], tuple) and len(v[1]) == 2)
    )


def _walk_tuple(value: tuple, walk: Any) -> Any:
    if _is_cons(value):
        heads = []
        cur: Any = value
        while _is_cons(cur):
            heads.append(cur[0])
            cur = cur[1]
        if cur is None:
            acc: Any = None
            for head in reversed(heads):
                acc = (walk(head), acc)
            return acc
    return tuple(walk(item) for item in value)
