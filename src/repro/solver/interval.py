"""Interval (bounds-propagation) backend, in the spirit of SUP-INF.

Section 3.2 lists "the SUP-INF method (Shostak 1977)" among the
alternatives to Fourier elimination.  This backend implements the
closely related *bounds propagation* discipline: every variable carries
an integer interval, and each linear inequality repeatedly tightens the
interval of each of its variables given the others' current bounds,
with integer rounding (ceil/floor) built in.  An empty interval proves
unsatisfiability.  (Like every backend, it consumes ``Atom`` systems
from the memoized linearization layer over the interned IR; repeated
goals never re-translate their comparisons.)

All arithmetic is exact: bounds are Python ``int`` (``None`` meaning
unbounded), never floats.  A float in the bound computation would lose
precision beyond 2**53 and can *strengthen* a bound incorrectly —
declaring a satisfiable system UNSAT, exactly the failure mode the
"trustworthy ``True``" backend contract forbids (a wrong UNSAT deletes
a run-time bound check the program needs).

Properties:

* sound for UNSAT (like every backend here);
* weaker than Fourier elimination — it reasons one constraint at a
  time and cannot combine constraints (e.g. ``x <= y /\\ y <= z /\\
  z <= x - 1`` needs a transitive chain it never forms) — but very
  fast, which is why real solvers use it as a preprocessing step (and
  why it is the first tier of :mod:`repro.solver.portfolio`);
* iteration-capped, since mutually increasing bounds may otherwise
  tighten forever (``x >= y + 1 /\\ y >= x + 1`` walks to infinity).

Included as the fourth point in the solver ablation: it shows what the
paper would have lost by choosing an even simpler method than Fourier.
"""

from __future__ import annotations

from typing import Sequence

from repro.indices.linear import Atom, LinComb, LinVar
from repro.records import record
from repro.solver.budget import Budget, BudgetExhausted, resolve_budget


@record
class IntervalStats:
    tightenings: int = 0
    passes: int = 0


def _ceil_div(num: int, den: int) -> int:
    """Exact ``ceil(num / den)`` for ``den > 0`` (no float round-trip)."""
    return -((-num) // den)


def interval_unsat(
    atoms: Sequence[Atom],
    max_passes: int = 64,
    stats: IntervalStats | None = None,
    budget: Budget | None = None,
) -> bool:
    """``True`` iff bounds propagation derives an empty interval.

    Each propagation pass spends one budget step per inequality;
    exhaustion degrades to ``False`` ("unknown"), like the pass cap.
    """
    budget = resolve_budget(budget)
    try:
        return _interval_unsat(atoms, max_passes, stats, budget)
    except BudgetExhausted:
        return False


def _interval_unsat(
    atoms: Sequence[Atom],
    max_passes: int,
    stats: IntervalStats | None,
    budget: Budget | None,
) -> bool:
    stats = stats if stats is not None else IntervalStats()

    ineqs: list[LinComb] = []
    for atom in atoms:
        if atom.rel == "=":
            ineqs.append(atom.lhs)
            ineqs.append(-atom.lhs)
        else:
            ineqs.append(atom.lhs)

    # None = unbounded in that direction; otherwise an exact int.
    lo: dict[LinVar, int | None] = {}
    hi: dict[LinVar, int | None] = {}
    for iq in ineqs:
        for var, _ in iq.coeffs:
            lo.setdefault(var, None)
            hi.setdefault(var, None)

    for _ in range(max_passes):
        stats.passes += 1
        changed = False
        for iq in ineqs:
            if budget is not None:
                budget.spend()
            if iq.is_const():
                if iq.const < 0:
                    return True
                continue
            # sum(a_i x_i) + c >= 0; bound each variable by the rest.
            for var, coeff in iq.coeffs:
                # rest_max = sup of sum_{j != i} a_j x_j + c
                rest_max: int | None = iq.const
                for other, a in iq.coeffs:
                    if other == var:
                        continue
                    limit = hi[other] if a > 0 else lo[other]
                    if limit is None:
                        rest_max = None
                        break
                    rest_max += a * limit
                if rest_max is None:
                    continue
                # coeff * var >= -rest_max
                if coeff > 0:
                    bound = _ceil_div(-rest_max, coeff)
                    current = lo[var]
                    if current is None or bound > current:
                        lo[var] = bound
                        changed = True
                        stats.tightenings += 1
                else:
                    bound = rest_max // -coeff  # floor division, exact
                    current = hi[var]
                    if current is None or bound < current:
                        hi[var] = bound
                        changed = True
                        stats.tightenings += 1
                var_lo, var_hi = lo[var], hi[var]
                if var_lo is not None and var_hi is not None and var_lo > var_hi:
                    return True
        if not changed:
            return False
    return False  # iteration cap: unknown, report "not proven"
