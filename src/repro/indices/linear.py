"""Linear normal form for index terms.

The solver (Section 3.2) works on conjunctions of *linear* inequalities
``a1*x1 + ... + an*xn + c >= 0`` over integer variables.  This module
provides :class:`LinComb` — a sparse linear combination — together with
the translation from index terms.  Translation is partial: a product of
two non-constant terms raises :class:`NonLinearIndex`, which the
elaborator turns into the paper's "reject non-linear constraints"
behaviour.

``div``, ``mod``, ``min``, ``max``, ``abs`` and ``sgn`` are *not*
handled here; :mod:`repro.solver.simplify` eliminates them first by
introducing fresh variables with defining (possibly disjunctive)
hypotheses.
"""

from __future__ import annotations

from math import gcd

from repro.indices.intern import memo_counter
from repro.indices.terms import (
    BinOp,
    Cmp,
    EVar,
    IConst,
    IndexTerm,
    IVar,
    UnOp,
)
from repro.records import record

#: A variable in a linear combination is either a rigid name or an evar.
LinVar = str | EVar


class NonLinearIndex(Exception):
    """An index term fell outside linear arithmetic."""

    def __init__(self, term: IndexTerm) -> None:
        super().__init__(f"non-linear index term: {term}")
        self.term = term


class UnsupportedIndex(Exception):
    """An operator (div/mod/min/...) that needs prior elimination."""

    def __init__(self, term: IndexTerm) -> None:
        super().__init__(f"operator needs elimination before linearization: {term}")
        self.term = term


@record(frozen=True)
class LinComb:
    """``sum(coeffs[v] * v) + const`` with integer coefficients.

    Immutable; zero coefficients never appear in ``coeffs``.
    """

    coeffs: tuple[tuple[LinVar, int], ...] = ()
    const: int = 0

    # -- construction -------------------------------------------------

    @staticmethod
    def of_const(value: int) -> "LinComb":
        return LinComb((), value)

    @staticmethod
    def of_var(var: LinVar, coeff: int = 1) -> "LinComb":
        if coeff == 0:
            return LinComb((), 0)
        return LinComb(((var, coeff),), 0)

    @staticmethod
    def _make(mapping: dict[LinVar, int], const: int) -> "LinComb":
        items = tuple(
            sorted(
                ((v, c) for v, c in mapping.items() if c != 0),
                key=lambda item: repr(item[0]),
            )
        )
        return LinComb(items, const)

    def as_dict(self) -> dict[LinVar, int]:
        return dict(self.coeffs)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "LinComb") -> "LinComb":
        merged = self.as_dict()
        for var, coeff in other.coeffs:
            merged[var] = merged.get(var, 0) + coeff
        return LinComb._make(merged, self.const + other.const)

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + other.scale(-1)

    def scale(self, factor: int) -> "LinComb":
        if factor == 0:
            return LinComb((), 0)
        return LinComb._make({v: c * factor for v, c in self.coeffs}, self.const * factor)

    def __neg__(self) -> "LinComb":
        return self.scale(-1)

    # -- queries --------------------------------------------------------

    def is_const(self) -> bool:
        return not self.coeffs

    def coeff(self, var: LinVar) -> int:
        for v, c in self.coeffs:
            if v == var:
                return c
        return 0

    def variables(self) -> set[LinVar]:
        return {v for v, _ in self.coeffs}

    def drop(self, var: LinVar) -> "LinComb":
        """The combination without ``var``'s term."""
        mapping = self.as_dict()
        mapping.pop(var, None)
        return LinComb._make(mapping, self.const)

    def substitute(self, var: LinVar, replacement: "LinComb") -> "LinComb":
        """Replace ``var`` by a linear combination."""
        coeff = self.coeff(var)
        if coeff == 0:
            return self
        return self.drop(var) + replacement.scale(coeff)

    def content(self) -> int:
        """gcd of the variable coefficients (0 when constant)."""
        g = 0
        for _, c in self.coeffs:
            g = gcd(g, abs(c))
        return g

    def evaluate(self, env: dict[LinVar, int]) -> int:
        total = self.const
        for var, coeff in self.coeffs:
            total += coeff * env[var]
        return total

    def __str__(self) -> str:
        if not self.coeffs:
            return str(self.const)
        parts: list[str] = []
        for var, coeff in self.coeffs:
            name = str(var)
            if coeff == 1:
                text = name
            elif coeff == -1:
                text = f"-{name}"
            else:
                text = f"{coeff}*{name}"
            if parts and not text.startswith("-"):
                parts.append(f"+ {text}")
            elif parts:
                parts.append(f"- {text[1:]}")
            else:
                parts.append(text)
        if self.const > 0:
            parts.append(f"+ {self.const}")
        elif self.const < 0:
            parts.append(f"- {-self.const}")
        return " ".join(parts)


#: Operators that must be eliminated before linearization.
ELIMINABLE_OPS = frozenset({"div", "mod", "min", "max"})
ELIMINABLE_UNOPS = frozenset({"abs", "sgn"})


_LIN_MEMO = memo_counter("linearize")


def linearize(term: IndexTerm) -> LinComb:
    """Translate an integer index term to a linear combination.

    Raises :class:`NonLinearIndex` for products of non-constants and
    :class:`UnsupportedIndex` for operators requiring elimination.

    The result — including a raised ``NonLinearIndex`` or
    ``UnsupportedIndex`` — is memoized on the interned node (``_lin``
    slot), so each distinct term is linearized at most once per
    process no matter how many goals, hypotheses, or solver passes
    mention it.
    """
    try:
        cached = term._lin  # type: ignore[attr-defined]
    except AttributeError:
        _LIN_MEMO.misses += 1
    else:
        _LIN_MEMO.hits += 1
        if isinstance(cached, Exception):
            raise cached
        return cached
    try:
        result = _linearize(term)
    except (NonLinearIndex, UnsupportedIndex) as exc:
        object.__setattr__(term, "_lin", exc)
        raise
    object.__setattr__(term, "_lin", result)
    return result


def _linearize(term: IndexTerm) -> LinComb:
    if isinstance(term, IConst):
        return LinComb.of_const(term.value)
    if isinstance(term, IVar):
        return LinComb.of_var(term.name)
    if isinstance(term, EVar):
        return LinComb.of_var(term)
    if isinstance(term, UnOp):
        if term.op == "neg":
            return -linearize(term.arg)
        raise UnsupportedIndex(term)
    if isinstance(term, BinOp):
        if term.op == "+":
            return linearize(term.left) + linearize(term.right)
        if term.op == "-":
            return linearize(term.left) - linearize(term.right)
        if term.op == "*":
            left = linearize(term.left)
            right = linearize(term.right)
            if left.is_const():
                return right.scale(left.const)
            if right.is_const():
                return left.scale(right.const)
            raise NonLinearIndex(term)
        if term.op in ELIMINABLE_OPS:
            raise UnsupportedIndex(term)
    raise NonLinearIndex(term)


@record(frozen=True)
class Atom:
    """A primitive linear constraint: ``lhs REL 0``.

    ``rel`` is one of ``">="`` or ``"="``; strict and reversed forms are
    normalized away at construction (over the integers ``x > 0`` is
    ``x - 1 >= 0``).  Disequalities are *not* atoms — they are split
    into a disjunction upstream.
    """

    rel: str  # ">=" or "="
    lhs: LinComb

    def __post_init__(self) -> None:
        assert self.rel in {">=", "="}

    def variables(self) -> set[LinVar]:
        return self.lhs.variables()

    def negate(self) -> list["Atom"]:
        """Atoms whose *disjunction* is the negation of ``self``.

        ``~(l >= 0)`` is ``-l - 1 >= 0``; ``~(l = 0)`` is
        ``l - 1 >= 0 \\/ -l - 1 >= 0``.
        """
        if self.rel == ">=":
            return [Atom(">=", (-self.lhs) + LinComb.of_const(-1))]
        return [
            Atom(">=", self.lhs + LinComb.of_const(-1)),
            Atom(">=", (-self.lhs) + LinComb.of_const(-1)),
        ]

    def holds(self, env: dict[LinVar, int]) -> bool:
        value = self.lhs.evaluate(env)
        return value >= 0 if self.rel == ">=" else value == 0

    def is_trivially_true(self) -> bool:
        if not self.lhs.is_const():
            return False
        return self.lhs.const >= 0 if self.rel == ">=" else self.lhs.const == 0

    def is_trivially_false(self) -> bool:
        if not self.lhs.is_const():
            return False
        return self.lhs.const < 0 if self.rel == ">=" else self.lhs.const != 0

    def __str__(self) -> str:
        return f"{self.lhs} {'>=' if self.rel == '>=' else '='} 0"


_ATOMS_MEMO = memo_counter("atoms_of_cmp")


def atoms_of_cmp(cmp_term: Cmp) -> list[list[Atom]]:
    """Translate a comparison into DNF over atoms.

    The result is a list of disjuncts, each a conjunction of atoms.  All
    comparisons except ``<>`` yield a single disjunct; ``<>`` yields two.

    The translation is memoized on the interned node (``_atoms`` slot,
    stored as immutable tuples); the returned lists are fresh on every
    call, so callers may extend or concatenate them freely.
    """
    try:
        cached = cmp_term._atoms  # type: ignore[attr-defined]
        _ATOMS_MEMO.hits += 1
    except AttributeError:
        _ATOMS_MEMO.misses += 1
        cached = tuple(tuple(d) for d in _atoms_of_cmp(cmp_term))
        object.__setattr__(cmp_term, "_atoms", cached)
    return [list(disjunct) for disjunct in cached]


def _atoms_of_cmp(cmp_term: Cmp) -> list[list[Atom]]:
    left = linearize(cmp_term.left)
    right = linearize(cmp_term.right)
    diff = left - right  # left - right REL 0
    op = cmp_term.op
    if op == "<":
        return [[Atom(">=", (-diff) + LinComb.of_const(-1))]]
    if op == "<=":
        return [[Atom(">=", -diff)]]
    if op == ">":
        return [[Atom(">=", diff + LinComb.of_const(-1))]]
    if op == ">=":
        return [[Atom(">=", diff)]]
    if op == "=":
        return [[Atom("=", diff)]]
    if op == "<>":
        return [
            [Atom(">=", diff + LinComb.of_const(-1))],
            [Atom(">=", (-diff) + LinComb.of_const(-1))],
        ]
    raise AssertionError(f"unknown comparison {op}")
