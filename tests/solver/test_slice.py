"""Property tests for the goal-preprocessing layer.

The contract (``repro/solver/slice.py`` module docstring, enforced
here and by the CI ``slice-parity`` job): relevancy slicing,
refuted-core subsumption, and shared-prefix Fourier resumption never
change a verdict.  The fuzz half of the file reuses the 600 boxed
random systems of ``test_differential.py`` and checks that routing a
system through :class:`SliceContext` — which decomposes it into
variable-connected components and queries them separately — returns
exactly the verdict of the monolithic backend call, backend by
backend; that every verdict produced *with* cross-system subsumption
state is still confirmed by omega; and that resuming Fourier from a
presolved hypothesis prefix agrees with elimination from scratch.
The unit half pins the union-find decomposition, the budget charge
per component probe, and the cache-stats plumbing.
"""

import random

import pytest

from repro import api, programs
from repro.indices.linear import Atom, LinComb
from repro.solver import backends, fourier, portfolio
from repro.solver.backends import Backend, get_backend
from repro.solver.budget import Budget, BudgetExhausted, use_budget
from repro.solver.slice import SliceContext, split_components
from tests.solver.test_differential import SYSTEMS, omega_verdict


def lc(const=0, **coeffs):
    return LinComb(tuple(coeffs.items()), const)


def _query(context: SliceContext, backend: Backend, atoms) -> bool:
    """Route one system through the slicing layer, treating the last
    atom as the (negated) conclusion — the shape prove_goal produces."""
    return context.query(backend, atoms, len(atoms) - 1)


# ---------------------------------------------------------------------------
# Fuzz: verdict preservation on the differential corpus
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["fourier", "interval", "simplex", "omega"])
def test_sliced_query_matches_monolithic_backend(name):
    """Component decomposition is exact: a fresh SliceContext (no
    cross-system subsumption state) must reproduce the plain backend
    verdict on every system."""
    backend = get_backend(name)
    disagreements = []
    for i, atoms in enumerate(SYSTEMS):
        direct = backend.unsat(atoms)
        sliced = _query(SliceContext(), backend, atoms)
        if direct != sliced:
            disagreements.append((i, direct, sliced))
    assert not disagreements, (
        f"{name}: slicing changed {len(disagreements)} verdict(s), "
        f"first at system #{disagreements[0][0]}"
    )


@pytest.mark.parametrize("name", programs.available())
def test_corpus_verdicts_identical_with_and_without_slicing(name):
    def verdicts(report):
        return [(r.goal.origin, r.proved, r.reason) for r in report.goal_results]

    assert verdicts(api.check_corpus(name)) == verdicts(
        api.check_corpus(name, slice_goals=False))


def test_shared_context_verdicts_stay_sound():
    """With one SliceContext across all 600 systems, subsumption can
    answer from cores recorded by *other* systems.  Every True verdict
    must still be a genuine integer refutation (omega confirms), and
    subsumption must actually fire for the test to mean anything."""
    backend = get_backend("fourier")
    telemetry = portfolio.SolverTelemetry()
    context = SliceContext(telemetry)
    for i, atoms in enumerate(SYSTEMS):
        if _query(context, backend, atoms):
            confirmed = omega_verdict(atoms)
            assert confirmed is not False, (
                f"sliced fourier refuted system #{i} but omega found an "
                f"integer model: {[str(a) for a in atoms]}"
            )
    assert telemetry.subsumption_hits > 0
    assert telemetry.sliced_queries == len(SYSTEMS)
    assert telemetry.atoms_after <= telemetry.atoms_before


def test_prefix_resume_matches_scratch_elimination():
    """Presolving a hypothesis prefix and resuming per-conclusion must
    agree with from-scratch fourier_unsat on every system (the resume
    path bails to scratch when it cannot preserve the verdict)."""
    resumed_at_least_once = False
    for i, atoms in enumerate(SYSTEMS):
        if len(atoms) < 3:
            continue
        prefix, rest = tuple(atoms[:-1]), atoms[-1:]
        protected = set()
        for atom in rest:
            protected |= atom.lhs.variables()
        state = fourier.presolve_prefix(prefix, protected)
        with fourier.use_prefix(state) as slot:
            via_prefix = fourier.fourier_unsat(atoms)
            resumed_at_least_once |= slot.uses > 0
        assert via_prefix == fourier.fourier_unsat(atoms), (
            f"prefix resume changed the verdict on system #{i}: "
            f"{[str(a) for a in atoms]}"
        )
    assert resumed_at_least_once, "the resume path never engaged"


# ---------------------------------------------------------------------------
# Unit: the union-find decomposition
# ---------------------------------------------------------------------------


class TestSplitComponents:
    def test_disjoint_variables_split(self):
        atoms = [
            Atom(">=", lc(x=1)),          # x >= 0
            Atom(">=", lc(-1, y=1)),      # y - 1 >= 0
            Atom(">=", lc(x=1, z=1)),     # x + z >= 0 (joins x's group)
        ]
        sliced = split_components(atoms, {"x"})
        assert not sliced.refuted
        assert [[str(a.lhs) for a in c] for c in sliced.components] == [
            ["x", "x + z"],
            ["y - 1"],
        ]
        assert sliced.relevant_atoms == 2

    def test_seed_component_ordered_first(self):
        atoms = [Atom(">=", lc(y=1)), Atom(">=", lc(x=1))]
        sliced = split_components(atoms, {"x"})
        assert [str(c[0].lhs) for c in sliced.components] == ["x", "y"]
        assert sliced.relevant_atoms == 1

    def test_ground_false_atom_refutes(self):
        sliced = split_components([Atom(">=", lc(-1)), Atom(">=", lc(x=1))], set())
        assert sliced.refuted and sliced.components == []

    def test_ground_true_atom_dropped(self):
        sliced = split_components([Atom(">=", lc(3)), Atom(">=", lc(x=1))], set())
        assert not sliced.refuted
        assert [[str(a.lhs) for a in c] for c in sliced.components] == [["x"]]

    def test_equality_edges_connect(self):
        # x = y chains the two single-variable atoms into one component.
        atoms = [
            Atom(">=", lc(x=1)),
            Atom("=", lc(x=1, y=-1)),
            Atom(">=", lc(y=1)),
        ]
        sliced = split_components(atoms, {"y"})
        assert len(sliced.components) == 1
        assert sliced.relevant_atoms == 3


# ---------------------------------------------------------------------------
# Unit: subsumption and budget accounting
# ---------------------------------------------------------------------------


def counting_backend(answer: bool):
    calls = []

    def unsat(atoms):
        calls.append(list(atoms))
        return answer

    return Backend("counting-test", unsat), calls


def test_subsumed_component_skips_the_backend():
    unsat_atoms = [Atom(">=", lc(-1, x=1)), Atom(">=", lc(0, x=-1))]
    backend, calls = counting_backend(True)
    context = SliceContext(portfolio.SolverTelemetry())
    assert _query(context, backend, unsat_atoms)
    assert len(calls) == 1
    # A superset of the recorded core refutes with no backend call.
    superset = unsat_atoms + [Atom(">=", lc(x=1, w=1))]
    assert _query(context, backend, superset)
    assert len(calls) == 1
    assert context.telemetry.subsumption_hits == 1


def test_each_component_probe_charges_a_budget_step():
    # Three disjoint single-variable atoms -> three component probes.
    atoms = [Atom(">=", lc(x=1)), Atom(">=", lc(y=1)), Atom(">=", lc(z=1))]
    backend, _ = counting_backend(False)
    budget = Budget(max_steps=100)
    with use_budget(budget):
        assert not _query(SliceContext(), backend, atoms)
    assert budget.remaining == 97

    with use_budget(Budget(max_steps=2)):
        with pytest.raises(BudgetExhausted):
            _query(SliceContext(), backend, atoms)


def test_subsumption_probe_still_charges_when_it_hits():
    unsat_atoms = [Atom(">=", lc(-1, x=1)), Atom(">=", lc(0, x=-1))]
    backend, _ = counting_backend(True)
    context = SliceContext()
    assert _query(context, backend, unsat_atoms)
    budget = Budget(max_steps=10)
    with use_budget(budget):
        assert _query(context, backend, unsat_atoms)
    assert budget.remaining == 9


def test_prefix_only_for_fourier_routed_backends():
    """Interval is not Fourier-routed: the context must not install a
    prefix around it (the ambient slot would be ignored anyway, but we
    assert no presolve work happens at all)."""
    atoms = [
        Atom(">=", lc(x=1, y=1)),
        Atom(">=", lc(x=1, y=-1)),
        Atom(">=", lc(-1, x=-1, y=1)),
    ]
    context = SliceContext()
    context.query(get_backend("interval"), atoms, 2)
    assert context._prefixes == {}
    context.query(get_backend("fourier"), atoms, 2)
    assert len(context._prefixes) == 1


# ---------------------------------------------------------------------------
# Unit: fail-soft and cache-stats plumbing
# ---------------------------------------------------------------------------


def test_resume_bails_on_eliminated_variable_overlap():
    """A residual atom mentioning a prefix-eliminated variable must not
    be substituted into the resumed system; the resume returns None and
    fourier starts from scratch — same verdict either way."""
    prefix = (
        Atom(">=", lc(-2, p=1)),   # p >= 2
        Atom(">=", lc(8, p=-1)),   # p <= 8
    )
    state = fourier.presolve_prefix(prefix, protected=set())
    assert "p" in state.eliminated
    conflicting = list(prefix) + [Atom(">=", lc(-6, p=1))]  # p >= 6: sat
    with fourier.use_prefix(state) as slot:
        assert not fourier.fourier_unsat(conflicting)
        assert slot.uses == 0  # bailed to the scratch path
    refuting = list(prefix) + [Atom(">=", lc(-9, p=1))]  # p >= 9: unsat
    with fourier.use_prefix(state):
        assert fourier.fourier_unsat(refuting)


def test_presolve_propagates_budget_exhaustion():
    atoms = tuple(
        Atom(">=", lc(i, **{v: 1, "w": -1}))
        for i, v in enumerate(("x", "y", "z"))
    )
    with use_budget(Budget(max_steps=1)):
        with pytest.raises(BudgetExhausted):
            fourier.presolve_prefix(atoms, protected=set())


def test_canonical_key_stats_reports_evictions():
    hits, misses, evictions = portfolio.canonical_key_stats()
    assert hits >= 0 and misses >= 0
    assert 0 <= evictions <= misses


def test_registry_has_no_leftover_test_backends():
    assert "counting-test" not in backends._REGISTRY
