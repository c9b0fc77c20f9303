"""Fourier variable elimination with integer tightening (Section 3.2).

The paper's solver shows a conjunction of linear constraints
unsatisfiable by repeatedly eliminating a variable ``x``: every pair
``l1 <= a1*x`` and ``a2*x <= l2`` (``a1, a2 > 0``) contributes the new
inequality ``a2*l1 <= a1*l2``, after which all constraints mentioning
``x`` are dropped.  This is sound and, over the rationals, complete.

To "handle modular arithmetic" the paper adds a rounding step: an
inequality ``a1*x1 + ... + an*xn <= a`` is strengthened to
``... <= a'`` where ``a'`` is the largest integer ``<= a`` divisible by
``gcd(a1..an)``.  In our ``lhs >= 0`` normal form this is: divide the
variable coefficients by their gcd ``g`` and replace the constant ``c``
by ``floor(c / g)`` — sound only over the integers, and exactly what is
needed to type-check the optimized byte-copy function.

The procedure remains *incomplete* over the integers (rationally
satisfiable but integrally unsatisfiable systems can survive); the
complete :mod:`repro.solver.omega` backend exists for comparison.

Inputs arrive as :class:`repro.indices.linear.Atom` systems produced
by the memoized ``linearize``/``atoms_of_cmp`` layer over the interned
IR — repeated goals over the same comparisons reuse their translation,
so this module only ever pays for the elimination itself.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from typing import Iterable, Iterator, Sequence

from repro.indices.linear import Atom, LinComb, LinVar
from repro.records import record
from repro.solver.budget import Budget, BudgetExhausted, resolve_budget


@record
class FourierStats:
    """Operation counters.

    ``tightenings`` counts every application of the paper's rounding
    rule — each inequality rewritten because its coefficient gcd
    exceeds 1 — whether or not the constant moved; ``roundings`` counts
    the strict subset where the constant was actually rounded down
    (the only applications that change the rational solution set).
    """

    eliminations: int = 0
    pair_combinations: int = 0
    tightenings: int = 0
    roundings: int = 0


@record
class FourierConfig:
    """Tuning knobs; ``integer_tightening=False`` is the
    ``fourier-rational`` backend."""

    integer_tightening: bool = True
    #: Abort (returning "unknown") once this many inequalities exist.
    max_inequalities: int = 20_000
    #: Abort after eliminating this many variables (defensive; the
    #: paper's constraints have at most a handful of variables).
    max_eliminations: int = 64


def _tighten(ineq: LinComb, config: FourierConfig, stats: FourierStats) -> LinComb:
    """Apply the gcd rounding rule to ``ineq >= 0``.

    Exact integer floor division throughout: ``ineq.const / g`` through
    a float would misround for constants beyond 2**53 and either weaken
    the rule or (worse) over-tighten it into unsoundness.
    """
    if not config.integer_tightening:
        return ineq
    g = ineq.content()
    if g <= 1:
        return ineq
    stats.tightenings += 1
    new_const = ineq.const // g
    if new_const * g != ineq.const:
        stats.roundings += 1
    return LinComb(
        tuple((v, c // g) for v, c in ineq.coeffs),
        new_const,
    )


def _expand_equalities(atoms: Iterable[Atom]) -> list[LinComb] | None:
    """Normalize atoms to pure inequalities ``lin >= 0``.

    Equalities whose coefficients' gcd does not divide the constant are
    an immediate integer contradiction, signalled by returning ``None``.
    Other equalities become a pair of opposite inequalities.
    """
    ineqs: list[LinComb] = []
    for atom in atoms:
        if atom.rel == "=":
            g = atom.lhs.content()
            if g == 0:
                if atom.lhs.const != 0:
                    return None
                continue
            if atom.lhs.const % g != 0:
                return None
            ineqs.append(atom.lhs)
            ineqs.append(-atom.lhs)
        else:
            ineqs.append(atom.lhs)
    return ineqs


def _find_unit(atom: Atom) -> tuple[LinVar, int] | None:
    """The first +-1-coefficient variable of an equality, if any."""
    if atom.rel != "=":
        return None
    for var, coeff in atom.lhs.coeffs:
        if abs(coeff) == 1:
            return var, coeff
    return None


def _substitute_unit_equalities(
    atoms: Sequence[Atom],
    budget: Budget | None = None,
    record: list[tuple[LinVar, LinComb]] | None = None,
) -> list[Atom] | None:
    """Use equalities with a +-1 coefficient to eliminate variables.

    This mirrors the "eliminate existential variables / solve simple
    equations first" preprocessing and keeps the inequality set small.
    Returns ``None`` on an immediate contradiction.  ``record``
    collects the ``(var, replacement)`` pairs in application order so
    a shared-prefix presolve can replay them on later residual atoms.

    Single worklist pass: each atom is examined for a unit equality
    once, and re-examined only when a substitution actually rewrote it
    (a rewrite can surface a new unit coefficient).  The eliminated
    variable never reappears — its replacement does not mention it — so
    each equality is processed at most once, rather than rescanning the
    whole list from index 0 after every substitution (quadratic on
    equality-heavy systems).
    """
    queue: deque[Atom] = deque(atoms)
    done: list[Atom] = []
    while queue:
        if budget is not None:
            budget.spend()
        atom = queue.popleft()
        unit = _find_unit(atom)
        if unit is None:
            done.append(atom)
            continue
        unit_var, unit_coeff = unit
        # coeff * var + rest = 0  =>  var = -rest / coeff
        rest = atom.lhs.drop(unit_var)
        replacement = rest.scale(-unit_coeff)  # coeff in {1,-1}
        if record is not None:
            record.append((unit_var, replacement))

        def rewrite(other: Atom) -> Atom | None:
            """Substituted atom, or ``None`` when it became trivial.
            Raises ``_Contradiction`` on a trivially false result."""
            new_atom = Atom(other.rel, other.lhs.substitute(unit_var, replacement))
            if new_atom.is_trivially_false():
                raise _Contradiction
            return None if new_atom.is_trivially_true() else new_atom

        try:
            new_queue: deque[Atom] = deque()
            for other in queue:
                if other.lhs.coeff(unit_var) == 0:
                    new_queue.append(other)
                    continue
                rewritten = rewrite(other)
                if rewritten is not None:
                    new_queue.append(rewritten)
            new_done: list[Atom] = []
            for other in done:
                if other.lhs.coeff(unit_var) == 0:
                    new_done.append(other)
                    continue
                rewritten = rewrite(other)
                if rewritten is not None:
                    # May have gained a unit coefficient: re-examine.
                    new_queue.append(rewritten)
        except _Contradiction:
            return None
        queue = new_queue
        done = new_done
    return done


class _Contradiction(Exception):
    """A substitution produced a trivially false atom."""


def _pick_variable(
    ineqs: Sequence[LinComb],
    restrict: set[LinVar] | None = None,
) -> LinVar | None:
    """Choose the variable whose elimination produces the fewest new
    inequalities (classic FM heuristic).  With ``restrict``, only those
    variables are candidates (used by the prefix presolve, which must
    leave protected variables in place)."""
    occurrences: dict[LinVar, tuple[int, int]] = {}
    for ineq in ineqs:
        for var, coeff in ineq.coeffs:
            if restrict is not None and var not in restrict:
                continue
            lower, upper = occurrences.get(var, (0, 0))
            # ineq >= 0 with positive coeff bounds var from below.
            if coeff > 0:
                occurrences[var] = (lower + 1, upper)
            else:
                occurrences[var] = (lower, upper + 1)
    if not occurrences:
        return None
    return min(
        occurrences,
        key=lambda v: (occurrences[v][0] * occurrences[v][1], repr(v)),
    )


def fourier_unsat(
    atoms: Sequence[Atom],
    config: FourierConfig | None = None,
    stats: FourierStats | None = None,
    budget: Budget | None = None,
) -> bool:
    """Return ``True`` iff the conjunction of ``atoms`` is shown
    unsatisfiable over the integers.

    ``False`` means "not shown unsatisfiable" — over the rationals the
    procedure is complete, so with tightening disabled ``False``
    guarantees rational satisfiability; with tightening enabled the
    answer is still only one-sided.

    Work (eliminations, pair combinations, unit substitutions) spends
    from the explicit or ambient :class:`Budget`; exhaustion degrades
    to ``False`` ("unknown"), never an exception.
    """
    budget = resolve_budget(budget)
    try:
        slot = getattr(_PREFIX, "slot", None)
        if slot is not None:
            resumed = _try_resume(slot.state, atoms, config, stats, budget)
            if resumed is not None:
                slot.uses += 1
                return resumed
        return _fourier_unsat(atoms, config, stats, budget)
    except BudgetExhausted:
        return False


def _fourier_unsat(
    atoms: Sequence[Atom],
    config: FourierConfig | None,
    stats: FourierStats | None,
    budget: Budget | None,
) -> bool:
    config = config or FourierConfig()
    stats = stats if stats is not None else FourierStats()

    pre = _substitute_unit_equalities(list(atoms), budget)
    if pre is None:
        return True
    ineqs = _expand_equalities(pre)
    if ineqs is None:
        return True

    ineqs = [_tighten(iq, config, stats) for iq in ineqs]
    for iq in ineqs:
        if iq.is_const() and iq.const < 0:
            return True

    return _eliminate_loop(ineqs, config, stats, budget)


def _eliminate_variable(
    ineqs: list[LinComb],
    var: LinVar,
    config: FourierConfig,
    stats: FourierStats,
    budget: Budget | None,
) -> tuple[list[LinComb], bool, bool]:
    """One Fourier elimination step: ``(new system, refuted, overflow)``.

    ``overflow`` means the inequality cap was hit mid-combination; the
    caller decides whether that aborts the solve (the main loop answers
    "unknown") or merely stops further presolving (a shared prefix
    keeps the variable and lets the per-goal resume handle it).
    """
    stats.eliminations += 1

    lowers: list[LinComb] = []  # a*x >= l  (coeff > 0)
    uppers: list[LinComb] = []  # a*x <= u  (coeff < 0)
    rest: list[LinComb] = []
    for iq in ineqs:
        coeff = iq.coeff(var)
        if coeff > 0:
            lowers.append(iq)
        elif coeff < 0:
            uppers.append(iq)
        else:
            rest.append(iq)

    new_ineqs = rest
    for low in lowers:
        a1 = low.coeff(var)
        for up in uppers:
            a2 = -up.coeff(var)
            if budget is not None:
                budget.spend()
            stats.pair_combinations += 1
            # low: a1*x + L >= 0, up: -a2*x + U >= 0
            # =>  a2*L + a1*U >= 0
            combined = low.drop(var).scale(a2) + up.drop(var).scale(a1)
            combined = _tighten(combined, config, stats)
            if combined.is_const():
                if combined.const < 0:
                    return new_ineqs, True, False
                continue
            new_ineqs.append(combined)
            if len(new_ineqs) > config.max_inequalities:
                return new_ineqs, False, True
    return new_ineqs, False, False


def _eliminate_loop(
    ineqs: list[LinComb],
    config: FourierConfig,
    stats: FourierStats,
    budget: Budget | None,
) -> bool:
    for _ in range(config.max_eliminations):
        if budget is not None:
            budget.spend()
        var = _pick_variable(ineqs)
        if var is None:
            # Only constant inequalities remain; all are >= 0 here.
            return False
        ineqs, refuted, overflow = _eliminate_variable(
            ineqs, var, config, stats, budget
        )
        if refuted:
            return True
        if overflow:
            return False
        if not ineqs:
            return False
    return False


# ---------------------------------------------------------------------------
# Shared-prefix incremental solving
# ---------------------------------------------------------------------------


@record(frozen=True)
class PrefixState:
    """Fourier elimination state presolved for a shared atom prefix.

    Built once per distinct hypothesis-atom set by
    :func:`presolve_prefix`; goals whose atom system extends the prefix
    resume from ``ineqs`` instead of re-running the unit-equality
    worklist, equality expansion, tightening, and the elimination of
    prefix-private variables.

    Soundness: ``ineqs`` together with ``substitutions`` is
    equisatisfiable (over the integers) with the prefix atoms;
    ``eliminated`` lists the variables removed by Fourier steps, which
    is exact for satisfiability as long as no residual atom mentions
    them — :func:`_try_resume` bails out to the from-scratch path
    otherwise.
    """

    atom_set: frozenset[Atom]
    config: FourierConfig
    refuted: bool
    substitutions: tuple[tuple[LinVar, LinComb], ...]
    ineqs: tuple[LinComb, ...]
    eliminated: frozenset[LinVar]


class _PrefixSlot:
    """Thread-local carrier for the ambient prefix plus a resume
    counter (read by the slicing layer for telemetry)."""

    __slots__ = ("state", "uses")

    def __init__(self, state: PrefixState) -> None:
        self.state = state
        self.uses = 0


_PREFIX = threading.local()


@contextmanager
def use_prefix(state: PrefixState | None) -> Iterator[_PrefixSlot]:
    """Install ``state`` as this thread's ambient prefix: any
    :func:`fourier_unsat` call whose atoms extend the prefix resumes
    from the presolved system.  Mirrors the ambient budget pattern —
    the ``Backend`` callable signature carries atoms only, so the
    memoization/portfolio wrappers need no new plumbing."""
    previous = getattr(_PREFIX, "slot", None)
    slot = _PrefixSlot(state) if state is not None else None
    _PREFIX.slot = slot
    try:
        yield slot if slot is not None else _PrefixSlot(
            PrefixState(frozenset(), FourierConfig(), False, (), (), frozenset())
        )
    finally:
        _PREFIX.slot = previous


def presolve_prefix(
    atoms: Sequence[Atom],
    protected: Iterable[LinVar],
    config: FourierConfig | None = None,
    stats: FourierStats | None = None,
    budget: Budget | None = None,
) -> PrefixState:
    """Presolve a shared hypothesis prefix.

    Runs the full preprocessing pipeline (unit-equality substitution,
    equality expansion, gcd tightening) and then eliminates every
    variable not reachable from ``protected`` — the variables later
    residual atoms may mention.  Work spends from the explicit or
    ambient budget (the first goal of a group pays for the presolve);
    :class:`~repro.solver.budget.BudgetExhausted` propagates so the
    caller can fall back instead of caching a half-built state.
    """
    config = config or FourierConfig()
    stats = stats if stats is not None else FourierStats()
    budget = resolve_budget(budget)
    atom_set = frozenset(atoms)

    def refuted_state(subs: list[tuple[LinVar, LinComb]]) -> PrefixState:
        return PrefixState(atom_set, config, True, tuple(subs), (), frozenset())

    subs: list[tuple[LinVar, LinComb]] = []
    pre = _substitute_unit_equalities(list(atoms), budget, record=subs)
    if pre is None:
        return refuted_state(subs)
    ineqs = _expand_equalities(pre)
    if ineqs is None:
        return refuted_state(subs)
    ineqs = [_tighten(iq, config, stats) for iq in ineqs]
    for iq in ineqs:
        if iq.is_const() and iq.const < 0:
            return refuted_state(subs)

    # Variables a residual can reach: the protected set plus anything a
    # recorded substitution rewrites a protected variable into.
    reach = set(protected)
    for var, repl in subs:
        if var in reach:
            reach.update(repl.variables())
    private = {v for iq in ineqs for v in iq.variables()} - reach

    eliminated: set[LinVar] = set()
    while private:
        if budget is not None:
            budget.spend()
        var = _pick_variable(ineqs, restrict=private)
        if var is None:
            break
        ineqs, refuted, overflow = _eliminate_variable(
            ineqs, var, config, stats, budget
        )
        if refuted:
            return refuted_state(subs)
        if overflow:
            # Keep the variable; the per-goal resume will handle it.
            break
        eliminated.add(var)
        private.discard(var)
        live = {v for iq in ineqs for v in iq.variables()}
        private &= live

    return PrefixState(
        atom_set, config, False, tuple(subs), tuple(ineqs), frozenset(eliminated)
    )


def _try_resume(
    state: PrefixState | None,
    atoms: Sequence[Atom],
    config: FourierConfig | None,
    stats: FourierStats | None,
    budget: Budget | None,
) -> bool | None:
    """Resume elimination from a presolved prefix, or ``None`` when the
    prefix does not apply (different config, atoms not a superset, or a
    residual atom mentions an eliminated variable)."""
    if state is None:
        return None
    config = config or FourierConfig()
    if config != state.config:
        return None
    if not state.atom_set <= set(atoms):
        return None
    if state.refuted:
        return True
    stats = stats if stats is not None else FourierStats()

    residual: list[Atom] = []
    for atom in atoms:
        if atom in state.atom_set:
            continue
        lhs = atom.lhs
        for var, repl in state.substitutions:
            lhs = lhs.substitute(var, repl)
        rewritten = Atom(atom.rel, lhs)
        if rewritten.is_trivially_false():
            return True
        if rewritten.is_trivially_true():
            continue
        residual.append(rewritten)
    if state.eliminated:
        for atom in residual:
            if not state.eliminated.isdisjoint(atom.lhs.variables()):
                return None

    combined = residual + [Atom(">=", iq) for iq in state.ineqs]
    pre = _substitute_unit_equalities(combined, budget)
    if pre is None:
        return True
    ineqs = _expand_equalities(pre)
    if ineqs is None:
        return True
    ineqs = [_tighten(iq, config, stats) for iq in ineqs]
    for iq in ineqs:
        if iq.is_const() and iq.const < 0:
            return True
    return _eliminate_loop(ineqs, config, stats, budget)
