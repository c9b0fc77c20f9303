"""Rational feasibility by the simplex method (baseline backend).

Section 3.2 mentions the simplex method as one of the alternatives to
Fourier elimination.  This module implements a small exact-arithmetic
(``fractions.Fraction``) phase-1 simplex, used by the ablation
benchmarks as the "rational-only" baseline: it is complete over the
rationals but, lacking any integer reasoning, proves strictly fewer
constraints than Fourier-with-tightening or the Omega test (any system
with a rational but no integer point slips through).

The LP is set up in standard computational form.  Free variables are
split into differences of nonnegatives; every inequality
``lhs >= 0`` gains a surplus variable; artificial variables seed a
feasible basis whose total is minimized (Bland's rule guarantees
termination).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from repro.indices.linear import Atom, LinVar
from repro.records import record
from repro.solver.budget import Budget, BudgetExhausted, resolve_budget


@record
class SimplexStats:
    pivots: int = 0


def _build_rows(
    atoms: Sequence[Atom],
) -> tuple[list[list[Fraction]], list[Fraction], int] | None:
    """Build equality rows ``A x = b`` with ``b >= 0`` over nonnegative
    variables.  Returns (rows, rhs, num_structural) or ``None`` when an
    atom is trivially contradictory."""
    variables = sorted({v for atom in atoms for v in atom.variables()}, key=repr)
    index: dict[LinVar, int] = {v: i for i, v in enumerate(variables)}
    n_free = len(variables)

    surplus_needed = sum(1 for atom in atoms if atom.rel == ">=")
    n_cols = 2 * n_free + surplus_needed  # x+ / x- pairs then surplus
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    surplus_at = 2 * n_free

    for atom in atoms:
        if atom.lhs.is_const():
            if atom.is_trivially_false():
                return None
            continue
        row = [Fraction(0)] * n_cols
        for var, coeff in atom.lhs.coeffs:
            j = index[var]
            row[2 * j] += Fraction(coeff)
            row[2 * j + 1] -= Fraction(coeff)
        b = Fraction(-atom.lhs.const)  # coeffs . x (+ surplus) = -const
        if atom.rel == ">=":
            row[surplus_at] = Fraction(-1)
            surplus_at += 1
        if b < 0:
            row = [-c for c in row]
            b = -b
        rows.append(row)
        rhs.append(b)
    return rows, rhs, n_cols


def simplex_feasible(
    atoms: Sequence[Atom],
    stats: SimplexStats | None = None,
    budget: Budget | None = None,
) -> bool:
    """Does the conjunction of atoms admit a *rational* solution?

    Each pivot spends one budget step; exhaustion raises
    :class:`~repro.solver.budget.BudgetExhausted` (``simplex_unsat``
    maps it to the conservative ``False``).
    """
    budget = resolve_budget(budget)
    stats = stats if stats is not None else SimplexStats()
    built = _build_rows(atoms)
    if built is None:
        return False
    rows, rhs, n_struct = built
    m = len(rows)
    if m == 0:
        return True

    # Phase-1 tableau: structural columns, artificial columns, rhs.
    n_total = n_struct + m
    tableau = [row + [Fraction(0)] * m + [rhs[i]] for i, row in enumerate(rows)]
    for i in range(m):
        tableau[i][n_struct + i] = Fraction(1)
    basis = [n_struct + i for i in range(m)]

    # Objective: minimize sum of artificials. Cost row holds reduced
    # costs of -(sum of artificial rows) restricted to non-artificials.
    cost = [Fraction(0)] * (n_total + 1)
    for i in range(m):
        for j in range(n_total + 1):
            cost[j] -= tableau[i][j]
    # Reduced cost of a basic artificial is c_j - z_j = 1 - 1 = 0.
    for i in range(m):
        cost[n_struct + i] += 1

    while True:
        # Bland's rule: entering column = lowest index with negative cost.
        entering = next(
            (j for j in range(n_total) if cost[j] < 0),
            None,
        )
        if entering is None:
            break
        # Ratio test, ties by lowest basis variable index (Bland).
        leaving = None
        best_ratio: Fraction | None = None
        for i in range(m):
            coeff = tableau[i][entering]
            if coeff > 0:
                ratio = tableau[i][n_total] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving is None:
            # Unbounded phase-1 objective cannot happen (bounded below
            # by 0); defensively declare feasibility unknown -> feasible.
            return True
        stats.pivots += 1
        if budget is not None:
            budget.spend()
        _pivot(tableau, cost, basis, leaving, entering, n_total)

    # Feasible iff the artificial total is zero.
    objective = -cost[n_total]
    return objective == 0


def _pivot(
    tableau: list[list[Fraction]],
    cost: list[Fraction],
    basis: list[int],
    row: int,
    col: int,
    n_total: int,
) -> None:
    pivot_val = tableau[row][col]
    tableau[row] = [c / pivot_val for c in tableau[row]]
    for i, r in enumerate(tableau):
        if i != row and r[col] != 0:
            factor = r[col]
            tableau[i] = [c - factor * p for c, p in zip(r, tableau[row])]
    if cost[col] != 0:
        factor = cost[col]
        for j in range(n_total + 1):
            cost[j] -= factor * tableau[row][j]
    basis[row] = col


def simplex_unsat(
    atoms: Sequence[Atom],
    stats: SimplexStats | None = None,
    budget: Budget | None = None,
) -> bool:
    """Backend entry point: ``True`` iff rationally infeasible.

    Budget exhaustion conservatively reports ``False`` ("unknown").
    """
    try:
        return not simplex_feasible(atoms, stats=stats, budget=budget)
    except BudgetExhausted:
        return False
