"""End-to-end fail-soft degradation tests.

The contract under test (DESIGN.md "Fail-soft solving"): budget
exhaustion, goal timeouts, and backend crashes each degrade to *kept
run-time checks* with recorded reasons — no exception ever reaches a
``check``/``check-corpus`` caller, and one poisoned goal never takes
down a batch.
"""

from pathlib import Path

import pytest

from repro import api, driver, programs
from repro.cli import main
from repro.solver import backends, fourier
from repro.solver.backends import Backend
from repro.solver.budget import SolverLimits

#: Hypotheses fan out into 2**8 disequality cases per goal: provable
#: under the default budget, adversarial under a tight one.
ADVERSARIAL = (
    "fun f(a, i) = sub(a, i) where f <| "
    + " ".join("{k%d:int | k%d <> 0}" % (i, i) for i in range(8))
    + " {n:nat} {i:int | 0 <= i /\\ i < n} 'a array(n) * int(i) -> 'a\n"
)

TIGHT = SolverLimits(max_steps=60)


@pytest.fixture()
def crashy_backend():
    """A registered backend that proves simple systems via fourier but
    crashes on any system with a multi-variable atom — a batch checks
    some goals and must contain the crashes of the rest.  The trigger
    is per-atom (not system size) so the relevancy-slicing layer,
    which shrinks systems but preserves every conclusion-connected
    atom, still hits it."""

    def unsat(atoms):
        if any(len(atom.lhs.variables()) >= 2 for atom in atoms):
            raise RuntimeError("synthetic backend crash")
        return fourier.fourier_unsat(atoms)

    name = "crashy-test"
    backends._REGISTRY[name] = Backend(name, unsat)
    try:
        yield name
    finally:
        del backends._REGISTRY[name]


class TestCheckDegradation:
    def test_adversarial_proves_under_default_budget(self):
        report = api.check(ADVERSARIAL)
        assert report.all_proved
        assert report.stats.budget_exhausted == 0
        assert len(report.eliminable_sites()) == 1

    def test_tight_budget_keeps_checks_without_crashing(self):
        report = api.check(ADVERSARIAL, limits=TIGHT)
        assert not report.all_proved
        assert report.stats.budget_exhausted > 0
        assert report.eliminable_sites() == set()  # checks kept
        assert all(
            "budget exhausted" in r.reason for r in report.failed_goals
        )
        assert "fail-soft" in report.summary()

    def test_goal_timeout_keeps_checks(self):
        report = api.check(
            ADVERSARIAL,
            limits=SolverLimits(max_steps=None, goal_timeout=1e-9),
        )
        assert not report.all_proved
        assert report.stats.budget_exhausted > 0
        assert any("timeout" in r.reason for r in report.failed_goals)

    def test_default_corpus_verdicts_unchanged_by_default_limits(self):
        # Budgets at default settings must be invisible: the same
        # verdicts with an explicit default SolverLimits() and with no
        # limit at all, on dotprod and the paper's eight programs.
        def verdicts(report):
            return [(r.goal.origin, r.proved, r.reason)
                    for r in report.goal_results]

        for name in ("dotprod", "bcopy", "bsearch", "bubblesort", "matmult",
                     "queens", "quicksort", "hanoi", "listaccess"):
            implicit = api.check_corpus(name)
            explicit = api.check_corpus(name, limits=SolverLimits())
            unlimited = api.check_corpus(name,
                                         limits=SolverLimits.unlimited())
            assert verdicts(implicit) == verdicts(explicit), name
            assert verdicts(implicit) == verdicts(unlimited), name
            assert implicit.all_proved, name
            assert implicit.stats.budget_exhausted == 0, name

    def test_crashing_backend_is_contained_per_goal(self, crashy_backend):
        # A small-system decl (the backend handles it) next to one the
        # backend crashes on: the crash stays confined to its goals.
        mixed = (
            "fun g(a) = sub(a, 0) "
            "where g <| {n:nat | n > 0} 'a array(n) -> 'a\n"
            + ADVERSARIAL
        )
        report = api.check(mixed, backend=crashy_backend)
        assert not report.all_proved
        assert report.stats.contained_crashes > 0
        assert any(
            "solver crashed" in r.reason and "RuntimeError" in r.reason
            for r in report.failed_goals
        )
        # Simple goals (small systems) still got real verdicts.
        assert report.stats.proved > 0


class TestDriverDegradation:
    def test_driver_contains_crashes(self, crashy_backend):
        outcome = driver.check_program(ADVERSARIAL, backend=crashy_backend)
        report = outcome.report
        assert not report.all_proved
        assert report.stats.contained_crashes > 0
        assert "fail-soft" in outcome.summary()

    def test_parallel_driver_budget_matches_sequential(self, tmp_path):
        # The limits travel to a corpus worker process.
        (tmp_path / "adversarial.dml").write_text(ADVERSARIAL)
        seq = api.check(ADVERSARIAL, limits=TIGHT)
        (par,) = driver.check_corpus(
            jobs=2, limits=TIGHT, source_dir=str(tmp_path)
        ).rows
        assert [
            (r.goal.origin, r.proved, r.reason) for r in seq.goal_results
        ] == par.verdicts
        assert par.budget_exhausted == seq.stats.budget_exhausted > 0

    def test_corpus_batch_survives_a_crashing_backend(self, crashy_backend):
        report = driver.check_corpus(
            ["dotprod", "bsearch"], jobs=2, backend=crashy_backend,
            cache_dir=None,
        )
        # The batch completed: every program has a row, failures are
        # recorded as verdicts rather than raised.
        assert len(report.rows) == 2
        assert not report.all_ok
        assert report.contained_crashes > 0
        assert "fail-soft" in report.render()
        for row in report.rows:
            assert row.goals == row.proved + row.failed

    def test_degraded_decl_verdicts_are_not_persisted(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = driver.check_corpus(
            ["dotprod"], jobs=1, cache_dir=cache_dir,
            limits=SolverLimits(max_steps=5),
        )
        assert cold.rows[0].budget_exhausted > 0
        # A warm run with a real budget must re-solve, not replay the
        # starved verdicts.
        warm = driver.check_corpus(["dotprod"], jobs=1, cache_dir=cache_dir)
        assert warm.all_ok
        assert warm.rows[0].budget_exhausted == 0


class TestCliDegradation:
    @pytest.fixture()
    def adversarial_file(self, tmp_path):
        path = tmp_path / "adversarial.dml"
        path.write_text(ADVERSARIAL)
        return str(path)

    def test_check_budget_flag_degrades_cleanly(self, adversarial_file, capsys):
        assert main(["check", adversarial_file, "--budget", "60"]) == 1
        out = capsys.readouterr().out
        assert "fail-soft" in out
        assert "budget exhausted" in out
        assert "0 eliminable" in out

    def test_partly_exhausted_check_prints_one_fail_soft_line(self, capsys):
        # bcopy under 40 steps: some goals prove, others run out, and
        # the solver-telemetry block is printed too.
        bcopy = str(Path(programs.__file__).with_name("bcopy.dml"))
        assert main(["check", bcopy, "--budget", "40"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("solver queries:") for line in lines)
        goals = next(line for line in lines if line.startswith("proof goals:"))
        proved = int(goals.split("(")[1].split()[0])
        assert 0 < proved < 51
        assert [line for line in lines if line.startswith("fail-soft:")] == [
            f"fail-soft:        {51 - proved} budget-exhausted goal(s), "
            "0 contained crash(es) (checks kept)"
        ]

    def test_check_budget_zero_lifts_the_cap(self, adversarial_file, capsys):
        assert main(["check", adversarial_file, "--budget", "0"]) == 0

    def test_goal_timeout_flag(self, adversarial_file, capsys):
        rc = main(["check", adversarial_file, "--goal-timeout", "1e-9"])
        assert rc == 1
        assert "timeout" in capsys.readouterr().out

    def test_check_corpus_accepts_budget_flags(self, capsys):
        rc = main(["check-corpus", "dotprod", "--no-cache", "-j", "1",
                   "--budget", "0"])
        assert rc == 0
