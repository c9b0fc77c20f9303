"""The checking driver: parity, incrementality, and fallback behavior."""

import sqlite3

from repro import api, driver, programs
from repro.driver.hashing import SCHEMA_VERSION
from repro.driver.store import DB_FILENAME, SqliteVerdictStore
from repro.solver.budget import SolverLimits
from repro.solver.portfolio import SolverTelemetry
from repro.solver.slice import SliceContext

GUARDED = (
    "fun f(x) = 10 div x\n"
    "fun g(arr) = sub(arr, 0)\n"
    "where g <| {n:nat | n > 0} int array(n) -> int\n"
)

EDIT_BASE = (
    "fun f(a) = sub(a, 0)\n"
    "where f <| {n:nat | n > 0} 'a array(n) -> 'a\n"
    "fun g(a) = sub(a, 1)\n"
    "where g <| {n:nat | n > 1} 'a array(n) -> 'a\n"
)


def sequential_verdicts(name: str):
    report = api.check(programs.load_source(name), f"{name}.dml")
    return [(r.goal.origin, r.proved, r.reason) for r in report.goal_results]


def check_with_store(
    source: str, name: str, root, **options
) -> driver.DriverReport:
    """``check_program`` against a freshly opened store, as the next
    process to run would see it."""
    disk = driver.open_store(root)
    try:
        return driver.check_program(source, name, disk=disk, **options)
    finally:
        disk.close()


def count_decl_stores(monkeypatch) -> list[str]:
    """The keys of every declaration record this process writes."""
    stored = []
    decl_store = SqliteVerdictStore.decl_store

    def counting(self, key, records):
        stored.append(key)
        decl_store(self, key, records)

    monkeypatch.setattr(SqliteVerdictStore, "decl_store", counting)
    return stored


class TestParity:
    def test_parallel_matches_sequential_on_the_corpus(self):
        corpus = driver.check_corpus(jobs=2, cache_dir=None)
        assert corpus.all_ok
        for row in corpus.rows:
            assert row.verdicts == sequential_verdicts(row.program), row.program

    def test_corpus_matches_sequential(self, tmp_path):
        corpus = driver.check_corpus(jobs=1, cache_dir=str(tmp_path))
        assert corpus.all_ok
        for row in corpus.rows:
            assert row.verdicts == sequential_verdicts(row.program), row.program

    def test_corpus_process_pool_writes_through_the_store(
        self, tmp_path, monkeypatch
    ):
        """Each worker persists its own verdicts: the parent stores no
        declaration record, and an in-process rerun replays them all.
        Workers of a warm pool seed their caches from the store."""
        stored = count_decl_stores(monkeypatch)
        cold = driver.check_corpus(jobs=2, cache_dir=str(tmp_path), clear=True)
        # Forked workers append to their own copies of the list.
        assert stored == []
        warm = driver.check_corpus(jobs=1, cache_dir=str(tmp_path))
        assert [r.verdicts for r in warm.rows] == [
            r.verdicts for r in cold.rows
        ]
        assert warm.goals_replayed == warm.goals == cold.goals > 0
        assert warm.decl_misses == 0
        # The counter does see calls made in this process (a replayed
        # record is not rewritten, so take them from a cold run).
        driver.check_corpus(
            ["bsearch"], jobs=1, cache_dir=str(tmp_path / "in-process")
        )
        assert stored

        pooled = driver.check_corpus(jobs=2, cache_dir=str(tmp_path))
        assert pooled.goals_replayed == pooled.goals
        assert pooled.cache_hits == pooled.queries > 0


class TestIncrementality:
    def test_warm_rerun_replays_every_declaration(self, tmp_path):
        source = programs.load_source("bsearch")
        cold = check_with_store(source, "bsearch.dml", tmp_path)
        assert cold.driver.goals_replayed == 0
        assert cold.driver.decl_misses > 0

        warm = check_with_store(source, "bsearch.dml", tmp_path)
        assert warm.verdicts == cold.verdicts
        assert warm.driver.goals_replayed == warm.driver.goals > 0
        assert warm.driver.decl_misses == 0
        assert warm.driver.preloaded > 0

    def test_a_replayed_record_is_not_rewritten(self, tmp_path, monkeypatch):
        stored = count_decl_stores(monkeypatch)
        cold = check_with_store(EDIT_BASE, "edit.dml", tmp_path)
        assert len(stored) == cold.driver.decl_misses == 2
        warm = check_with_store(EDIT_BASE, "edit.dml", tmp_path)
        assert warm.driver.decl_hits == 2
        assert len(stored) == 2

    def test_editing_one_decl_invalidates_only_the_suffix(self, tmp_path):
        check_with_store(EDIT_BASE, "edit.dml", tmp_path)

        edited = EDIT_BASE.replace("sub(a, 1)", "sub(a, 0)")
        warm = check_with_store(edited, "edit.dml", tmp_path)
        # f is untouched (replayed); g was edited (re-solved).
        assert warm.driver.decl_hits == 1
        assert warm.driver.decl_misses == 1
        assert 0 < warm.driver.goals_replayed < warm.driver.goals
        assert all(proved for _, proved, _ in warm.verdicts)

    def test_renamed_variables_still_hit_the_solver_layer(self, tmp_path):
        telemetry_cold = check_with_store(
            EDIT_BASE, "edit.dml", tmp_path
        ).report.telemetry
        assert telemetry_cold.cache_misses > 0

        # Alpha-renaming changes every decl hash but no goal shape:
        # the decl layer misses, the canonical-key layer answers all.
        renamed = EDIT_BASE.replace("(a)", "(b)").replace("(a,", "(b,") \
                           .replace("sub(a,", "sub(b,")
        warm = check_with_store(renamed, "edit.dml", tmp_path)
        assert warm.driver.decl_hits == 0
        assert warm.driver.goals_replayed == 0
        telemetry = warm.report.telemetry
        assert telemetry.queries > 0
        assert telemetry.cache_misses == 0
        assert all(proved for _, proved, _ in warm.verdicts)


class TestLimits:
    def test_a_budgeted_run_does_not_replay_a_default_record(self, tmp_path):
        """A record proved under the default envelope must not answer
        a check under a smaller one: the budgeted run exhausts exactly
        what ``api.check`` with that budget exhausts."""
        source = programs.load_source("bsearch")
        tight = SolverLimits(max_steps=3)
        check_with_store(source, "bsearch.dml", tmp_path)
        budgeted = check_with_store(
            source, "bsearch.dml", tmp_path, limits=tight
        )
        reference = api.check(source, "bsearch.dml", limits=tight)
        assert budgeted.driver.goals_replayed == 0
        assert budgeted.verdicts == [
            (r.goal.origin, r.proved, r.reason)
            for r in reference.goal_results
        ]
        assert budgeted.report.stats.proved == reference.stats.proved == 0
        assert (budgeted.report.stats.budget_exhausted
                == reference.stats.budget_exhausted
                == budgeted.driver.goals > 0)


class TestSlicingContext:
    def test_a_caller_owned_context_is_used(self):
        telemetry = SolverTelemetry()
        slicing = SliceContext(telemetry)
        outcome = driver.check_program(
            programs.load_source("bsearch"), "bsearch.dml", slicing=slicing
        )
        assert telemetry.sliced_queries > 0
        assert outcome.report.telemetry.sliced_queries == 0

    def test_slice_goals_off_ignores_the_context(self):
        telemetry = SolverTelemetry()
        outcome = driver.check_program(
            programs.load_source("bsearch"), "bsearch.dml",
            slice_goals=False, slicing=SliceContext(telemetry),
        )
        assert telemetry.sliced_queries == 0
        assert outcome.verdicts == sequential_verdicts("bsearch")


class TestFallback:
    def test_corrupted_cache_file_falls_back_to_cold(self, tmp_path):
        check_with_store(EDIT_BASE, "edit.dml", tmp_path)
        (tmp_path / DB_FILENAME).write_bytes(b"\x00torn write")

        broken = driver.open_store(tmp_path)
        assert broken.corrupt
        try:
            warm = driver.check_program(EDIT_BASE, "edit.dml", disk=broken)
        finally:
            broken.close()
        assert warm.driver.goals_replayed == 0
        assert warm.driver.preloaded == 0
        assert all(proved for _, proved, _ in warm.verdicts)
        # The cold solve rewrote a valid store.
        rebuilt = driver.open_store(tmp_path)
        assert not rebuilt.corrupt
        assert rebuilt.loaded_solver > 0
        rebuilt.close()

    def test_corpus_flags_a_corrupt_cache(self, tmp_path):
        # A store written under another schema version is dropped.
        driver.check_corpus(["bsearch"], jobs=1, cache_dir=str(tmp_path))
        conn = sqlite3.connect(tmp_path / DB_FILENAME)
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        conn.close()
        report = driver.check_corpus(
            ["bsearch"], jobs=1, cache_dir=str(tmp_path)
        )
        assert report.corrupt_cache
        assert report.preloaded == report.goals_replayed == 0
        assert report.all_ok


class TestGuardGoals:
    def test_failed_guard_goal_reported_but_does_not_veto_elimination(self):
        outcome = driver.check_program(GUARDED, "guarded.dml")
        origins = {origin: proved for origin, proved, _ in outcome.verdicts}
        guard_failures = [
            origin
            for origin, proved in origins.items()
            if origin.startswith("guard:") and not proved
        ]
        assert guard_failures  # the unconstrained div keeps its check
        # ...while the proven subscript is still eliminated.
        assert any(site.startswith("sub#") for site in
                   outcome.report.eliminable_sites())
        assert outcome.verdicts == [
            (r.goal.origin, r.proved, r.reason)
            for r in api.check(GUARDED, "guarded.dml").goal_results
        ]

    def test_failed_guard_goal_survives_a_cached_rerun(self, tmp_path):
        cold = check_with_store(GUARDED, "guarded.dml", tmp_path)
        warm = check_with_store(GUARDED, "guarded.dml", tmp_path)
        assert warm.verdicts == cold.verdicts
        assert warm.driver.goals_replayed == warm.driver.goals
        assert any(site.startswith("sub#") for site in
                   warm.report.eliminable_sites())
