"""The Omega test: exact integer (un)satisfiability of linear systems.

Section 3.2 of the paper notes that Fourier elimination with gcd
tightening is "sound but incomplete" and that the method "can be
extended to be both sound and complete while remaining practical (see
Pugh and Wonnacott 1992/1994)"; Section 6 lists adopting those ideas as
future work.  This module implements that extension — Pugh's Omega test
— so the paper's incomplete solver can be compared against the
complete one on the same constraint corpus (both consume
the same memoized ``Atom`` translation over the interned IR, so the
comparison isolates pure solver cost).

The algorithm:

* **Equality elimination.**  Equalities are removed first.  An equality
  with a unit coefficient solves directly; otherwise Pugh's symmetric
  modulus substitution introduces a fresh variable whose coefficient is
  a unit, shrinking the remaining coefficients geometrically.
* **Shadow computation.**  For a chosen variable, the *real shadow* is
  classic Fourier elimination (complete for rationals); the *dark
  shadow* strengthens each combination by ``(a-1)(b-1)`` and is a
  sufficient condition for an integer point.  When every pairing has a
  unit coefficient the shadows coincide and elimination is exact.
* **Splinters.**  When the real shadow is satisfiable but the dark
  shadow is not, integer solutions (if any) hug a lower bound:
  ``b*x = -L + i`` for small ``i``; each splinter adds that equality
  and recurses.
"""

from __future__ import annotations

from math import floor
from typing import Sequence

from repro.indices.linear import Atom, LinComb, LinVar
from repro.records import record
from repro.solver.budget import Budget, BudgetExhausted, resolve_budget

#: Backwards-compatible alias: exhaustion is now the solver-wide
#: :class:`~repro.solver.budget.BudgetExhausted` (callers report
#: 'unknown').
OmegaBudgetExceeded = BudgetExhausted


@record
class OmegaStats:
    equality_steps: int = 0
    shadow_steps: int = 0
    splinters: int = 0


@record
class OmegaConfig:
    #: Per-call step cap.  When a goal-level budget is active this
    #: becomes a sub-budget of it, so one omega call can never spend
    #: more than this even inside a large goal envelope.
    max_steps: int = 100_000
    #: Shadow/splinter recursion depth cap.  Deep inequality chains
    #: used to walk straight into Python's recursion limit and escape
    #: as a raw ``RecursionError``; past this depth the descent maps to
    #: the budget-exhausted 'unknown' path instead (check kept).
    max_depth: int = 240


_sigma_counter = 0


def _fresh_sigma() -> str:
    global _sigma_counter
    _sigma_counter += 1
    return f"$sigma{_sigma_counter}"


def _mod_hat(a: int, m: int) -> int:
    """Symmetric residue of ``a`` modulo ``m``, in ``(-m/2, m/2]``."""
    r = a % m
    if 2 * r > m:
        r -= m
    return r


def _normalize_equality(eq: LinComb) -> LinComb | None:
    """Divide an equality by the gcd of its coefficients.

    Returns ``None`` when the equality is integrally unsatisfiable
    (gcd of variable coefficients does not divide the constant).
    """
    g = eq.content()
    if g == 0:
        return eq if eq.const == 0 else None
    if eq.const % g != 0:
        return None
    return LinComb(tuple((v, c // g) for v, c in eq.coeffs), eq.const // g)


def _tighten_exact(ineq: LinComb) -> LinComb:
    """gcd rounding of ``ineq >= 0`` — exact over the integers."""
    g = ineq.content()
    if g <= 1:
        return ineq
    return LinComb(tuple((v, c // g) for v, c in ineq.coeffs), floor(ineq.const / g))


def _solve_equalities(
    atoms: Sequence[Atom], budget: Budget, stats: OmegaStats
) -> list[LinComb] | None:
    """Eliminate all equalities; return residual inequalities.

    ``None`` signals a detected contradiction (hence UNSAT).
    """
    equalities: list[LinComb] = []
    inequalities: list[LinComb] = []
    for atom in atoms:
        if atom.rel == "=":
            equalities.append(atom.lhs)
        else:
            inequalities.append(atom.lhs)

    def substitute_everywhere(var: LinVar, replacement: LinComb) -> bool:
        nonlocal equalities, inequalities
        new_eqs = []
        for eq in equalities:
            new_eq = _normalize_equality(eq.substitute(var, replacement))
            if new_eq is None:
                return False
            if new_eq.is_const():
                if new_eq.const != 0:
                    return False
                continue
            new_eqs.append(new_eq)
        equalities = new_eqs
        inequalities = [iq.substitute(var, replacement) for iq in inequalities]
        return True

    while equalities:
        budget.spend()
        stats.equality_steps += 1
        eq = _normalize_equality(equalities.pop())
        if eq is None:
            return None
        if eq.is_const():
            if eq.const != 0:
                return None
            continue

        unit = next(((v, c) for v, c in eq.coeffs if abs(c) == 1), None)
        if unit is not None:
            var, coeff = unit
            # coeff*var + rest = 0  =>  var = -coeff*rest (coeff = +-1)
            replacement = eq.drop(var).scale(-coeff)
            if not substitute_everywhere(var, replacement):
                return None
            continue

        # Pugh's symmetric-modulus substitution.
        var, coeff = min(eq.coeffs, key=lambda item: (abs(item[1]), repr(item[0])))
        m = abs(coeff) + 1
        sigma = _fresh_sigma()
        hatted: dict[LinVar, int] = {sigma: -m}
        for v, c in eq.coeffs:
            hatted[v] = _mod_hat(c, m)
        new_eq = LinComb(
            tuple(sorted(((v, c) for v, c in hatted.items() if c != 0), key=lambda i: repr(i[0]))),
            _mod_hat(eq.const, m),
        )
        # In new_eq, var's coefficient is mod_hat(coeff, m) = -sign(coeff),
        # a unit: solve new_eq for var and substitute into everything,
        # including the original equality (whose coefficients shrink).
        var_coeff = new_eq.coeff(var)
        assert abs(var_coeff) == 1, "symmetric modulus must yield a unit coefficient"
        replacement = new_eq.drop(var).scale(-var_coeff)
        equalities.append(eq)
        if not substitute_everywhere(var, replacement):
            return None

    result: list[LinComb] = []
    for iq in inequalities:
        iq = _tighten_exact(iq)
        if iq.is_const():
            if iq.const < 0:
                return None
            continue
        result.append(iq)
    return result


def _choose_variable(ineqs: Sequence[LinComb]) -> LinVar:
    """Prefer a variable for which elimination is exact (some side all
    units), breaking ties by the number of generated pairs."""
    info: dict[LinVar, dict[str, int]] = {}
    for iq in ineqs:
        for var, coeff in iq.coeffs:
            entry = info.setdefault(var, {"low": 0, "up": 0, "maxc": 0, "unit_ok": 1})
            if coeff > 0:
                entry["low"] += 1
            else:
                entry["up"] += 1
            entry["maxc"] = max(entry["maxc"], abs(coeff))

    def key(var: LinVar) -> tuple:
        entry = info[var]
        exact = 0 if entry["maxc"] == 1 else 1
        return (exact, entry["low"] * entry["up"], entry["maxc"], repr(var))

    return min(info, key=key)


def _omega_ineqs(
    ineqs: list[LinComb],
    budget: Budget,
    stats: OmegaStats,
    depth: int,
    max_depth: int,
) -> bool:
    """Exact satisfiability of a pure-inequality system.

    ``depth`` tracks the shadow/splinter descent; exceeding
    ``max_depth`` exhausts the budget (the caller reports 'unknown')
    rather than letting a deep chain raise ``RecursionError`` through
    the checker.
    """
    if depth > max_depth:
        budget.exhaust("depth")
    budget.spend()
    work: list[LinComb] = []
    for iq in ineqs:
        iq = _tighten_exact(iq)
        if iq.is_const():
            if iq.const < 0:
                return False
            continue
        work.append(iq)
    if not work:
        return True

    var = _choose_variable(work)
    lowers: list[LinComb] = []  # b*x + L >= 0 with b > 0
    uppers: list[LinComb] = []  # -a*x + U >= 0 with a > 0
    rest: list[LinComb] = []
    for iq in work:
        coeff = iq.coeff(var)
        if coeff > 0:
            lowers.append(iq)
        elif coeff < 0:
            uppers.append(iq)
        else:
            rest.append(iq)

    if not lowers or not uppers:
        # var is unbounded on one side: project it away entirely.
        return _omega_ineqs(rest, budget, stats, depth + 1, max_depth)

    stats.shadow_steps += 1
    real_shadow: list[LinComb] = list(rest)
    dark_shadow: list[LinComb] = list(rest)
    exact = True
    for low in lowers:
        b = low.coeff(var)
        for up in uppers:
            a = -up.coeff(var)
            budget.spend()
            combined = up.drop(var).scale(b) + low.drop(var).scale(a)
            real_shadow.append(combined)
            slack = (a - 1) * (b - 1)
            if slack:
                exact = False
            dark_shadow.append(combined + LinComb.of_const(-slack))

    if not _omega_ineqs(real_shadow, budget, stats, depth + 1, max_depth):
        return False
    if exact:
        # Real and dark shadows coincide; the real shadow was SAT.
        return True
    if _omega_ineqs(dark_shadow, budget, stats, depth + 1, max_depth):
        return True

    # Splinter search: integer solutions must sit close to a lower bound.
    max_a = max(-up.coeff(var) for up in uppers)
    for low in lowers:
        b = low.coeff(var)
        limit = (max_a * b - max_a - b) // max_a
        for i in range(limit + 1):
            stats.splinters += 1
            budget.spend()
            splinter = [Atom("=", low + LinComb.of_const(-i))]
            splinter += [Atom(">=", iq) for iq in work]
            if _omega_atoms(splinter, budget, stats, depth + 1, max_depth):
                return True
    return False


def _omega_atoms(
    atoms: Sequence[Atom],
    budget: Budget,
    stats: OmegaStats,
    depth: int,
    max_depth: int,
) -> bool:
    """Satisfiability of a mixed equality/inequality system at a given
    descent depth (the splinter re-entry point)."""
    ineqs = _solve_equalities(atoms, budget, stats)
    if ineqs is None:
        return False
    return _omega_ineqs(ineqs, budget, stats, depth, max_depth)


def omega_sat(
    atoms: Sequence[Atom],
    config: OmegaConfig | None = None,
    budget: Budget | None = None,
    stats: OmegaStats | None = None,
) -> bool:
    """Exact integer satisfiability of a conjunction of atoms.

    Raises :class:`~repro.solver.budget.BudgetExhausted` when the work
    budget runs out.  When a goal-level budget is active (passed
    explicitly or ambient via :func:`repro.solver.budget.use_budget`),
    this call spends from it through a sub-budget capped at
    ``config.max_steps``, preserving the classic per-call omega cap.
    """
    config = config or OmegaConfig()
    outer = resolve_budget(budget)
    if outer is None:
        call_budget = Budget(config.max_steps)
    else:
        call_budget = outer.sub(config.max_steps)
    stats = stats if stats is not None else OmegaStats()
    return _omega_atoms(atoms, call_budget, stats, 0, config.max_depth)


def omega_unsat(
    atoms: Sequence[Atom],
    config: OmegaConfig | None = None,
    stats: OmegaStats | None = None,
    budget: Budget | None = None,
) -> bool:
    """Backend entry point: ``True`` iff provably unsatisfiable.

    Budget or depth exhaustion conservatively reports ``False``
    ("unknown"), as does a ``RecursionError`` (defense in depth — the
    explicit ``max_depth`` cap should fire first).
    """
    try:
        return not omega_sat(atoms, config=config, stats=stats, budget=budget)
    except BudgetExhausted:
        return False
    except RecursionError:  # pragma: no cover - max_depth fires first
        return False
