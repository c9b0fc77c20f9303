"""The constraint language of Section 3.

    phi ::= b | phi1 /\\ phi2 | b ==> phi | exists a:gamma. phi
          | forall a:gamma. phi

Constraints are produced by elaboration (:mod:`repro.core.elaborate`)
and consumed by :mod:`repro.solver.simplify`, which flattens them into
universally quantified linear implication *goals*.

Like the index terms they embed, constraints are hash-consed through
:mod:`repro.indices.intern`: construction returns the unique node for
the class and fields (spans and sorts included), equality is identity,
and structurally identical constraint trees — e.g. the same guard
generated at every use of a prelude operator — are stored once.
"""

from __future__ import annotations


from repro.indices import terms
from repro.indices.intern import Interned
from repro.indices.sorts import Sort
from repro.indices.terms import IndexTerm
from repro.lang.source import DUMMY_SPAN, Span
from repro.records import record


class Constraint(metaclass=Interned):
    """Base class of constraint formulas (interned, identity-equal)."""

    __slots__ = ("_nid", "__weakref__")

    @property
    def nid(self) -> int:
        """Process-local unique node id (assigned at intern time)."""
        return self._nid  # type: ignore[attr-defined]

    def __reduce__(self):
        cls = type(self)
        return (cls, tuple(getattr(self, name) for name in cls.__match_args__))


@record(frozen=True, slots=True, eq=False)
class CTrue(Constraint):
    def __str__(self) -> str:
        return "T"


@record(frozen=True, slots=True, eq=False)
class CProp(Constraint):
    """An atomic boolean index obligation, tagged with its origin.

    ``origin`` is a short human-readable reason (e.g. ``"array bound
    for sub"``) and ``span`` points into the source program; both feed
    the diagnostics and the Table 1 accounting.
    """

    prop: IndexTerm
    origin: str = ""
    span: Span = DUMMY_SPAN

    def __str__(self) -> str:
        return str(self.prop)


@record(frozen=True, slots=True, eq=False)
class CAnd(Constraint):
    left: Constraint
    right: Constraint

    def __str__(self) -> str:
        return f"({self.left} /\\ {self.right})"


@record(frozen=True, slots=True, eq=False)
class CImpl(Constraint):
    """``hyp ==> body`` — hypotheses arise from pattern matching,
    branch conditions, and quantifier guards."""

    hyp: IndexTerm
    body: Constraint

    def __str__(self) -> str:
        return f"({self.hyp} ==> {self.body})"


@record(frozen=True, slots=True, eq=False)
class CForall(Constraint):
    var: str
    sort: Sort
    body: Constraint

    def __str__(self) -> str:
        return f"forall {self.var}:{self.sort}. {self.body}"


@record(frozen=True, slots=True, eq=False)
class CExists(Constraint):
    var: str
    sort: Sort
    body: Constraint

    def __str__(self) -> str:
        return f"exists {self.var}:{self.sort}. {self.body}"


TRUE = CTrue()


def cand(left: Constraint, right: Constraint) -> Constraint:
    if isinstance(left, CTrue):
        return right
    if isinstance(right, CTrue):
        return left
    return CAnd(left, right)


def conj(parts: list[Constraint]) -> Constraint:
    result: Constraint = TRUE
    for part in parts:
        result = cand(result, part)
    return result


def guard(hyp: IndexTerm, body: Constraint) -> Constraint:
    if isinstance(body, CTrue):
        return TRUE
    if isinstance(hyp, terms.BConst) and hyp.value:
        return body
    return CImpl(hyp, body)


def forall(var: str, sort: Sort, body: Constraint) -> Constraint:
    if isinstance(body, CTrue):
        return TRUE
    return CForall(var, sort, body)


def count_props(constraint: Constraint) -> int:
    """Number of atomic obligations in a constraint tree.

    This is the figure reported in Table 1's "constraints" column.
    """
    if isinstance(constraint, CProp):
        return 1
    if isinstance(constraint, CTrue):
        return 0
    if isinstance(constraint, CAnd):
        return count_props(constraint.left) + count_props(constraint.right)
    if isinstance(constraint, (CImpl, CForall, CExists)):
        return count_props(constraint.body)
    raise AssertionError(f"unknown constraint {constraint!r}")
