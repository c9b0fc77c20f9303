"""The verdict store's contract, across processes and in the driver.

The load-bearing claims:

* **no lost updates** — N processes absorbing *disjoint* verdict sets
  into one store yield their exact union (row merge under WAL);
* **cross-run hit counts** — declaration replays accumulate across
  runs;
* **corruption** — a garbage store file is a flagged cold start,
  never trusted, and rebuilt on the next save.

Clearing, permissions and row-level corruption are in test_cache.py.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import driver
from repro.driver.store import DB_FILENAME, SqliteVerdictStore, open_store
from repro.indices.linear import Atom, LinComb
from repro.solver.portfolio import SolverCache, canonical_key


def key_for(i: int):
    # x - i >= 0: a distinct canonical key per i.
    return canonical_key([Atom(">=", LinComb(coeffs=(("x", 1),), const=-i))])


def cache_with(start: int, count: int) -> SolverCache:
    cache = SolverCache(maxsize=count + 1)
    for i in range(start, start + count):
        cache.store("fourier", key_for(i), True)
    return cache


@pytest.fixture(params=[SqliteVerdictStore.kind])
def backend(request):
    """The store kind the contract tests run against, as the store
    reports it in ``stats()`` and the corpus report."""
    return request.param


class TestInterfaceParity:
    """The store contract the driver and the daemon rely on."""

    def test_round_trip(self, tmp_path, backend):
        store = open_store(tmp_path)
        assert store.kind == backend
        assert store.absorb(cache_with(0, 3)) == 3
        store.decl_store("abc", [("sub#1", True, "")])
        store.save()
        store.close()

        fresh = open_store(tmp_path)
        assert not fresh.corrupt
        assert fresh.loaded_solver == 3
        assert fresh.loaded_decls == 1
        assert fresh.decl_lookup("abc") == [("sub#1", True, "")]
        seeded = SolverCache()
        assert fresh.seed(seeded) == 3
        assert seeded.lookup("fourier", key_for(1)) is True
        fresh.close()

    def test_absorb_counts_only_new_entries(self, tmp_path, backend):
        store = open_store(tmp_path)
        assert store.absorb(cache_with(0, 2)) == 2
        assert store.absorb(cache_with(0, 2)) == 0
        assert store.solver_entry_count == 2
        store.close()

    def test_clear_is_a_cold_start(self, tmp_path, backend):
        store = open_store(tmp_path)
        store.absorb(cache_with(0, 2))
        store.decl_store("k", [("sub#1", True, "")])
        store.save()
        store.clear()
        assert store.solver_entry_count == 0
        assert store.decl_entry_count == 0
        assert store.decl_lookup("k") is None
        store.close()
        reopened = open_store(tmp_path)
        assert reopened.loaded_solver == 0
        assert reopened.loaded_decls == 0
        reopened.close()

    def test_stats_snapshot(self, tmp_path, backend):
        store = open_store(tmp_path)
        store.absorb(cache_with(0, 2))
        store.decl_store("k", [("sub#1", True, "")])
        assert store.decl_lookup("k") is not None
        assert store.decl_lookup("missing") is None
        assert store.stats() == {
            "backend": backend,
            "solver_entries": 2,
            "decl_entries": 1,
            "loaded_solver": 0,
            "loaded_decls": 0,
            "decl_hits": 1,
            "decl_misses": 1,
            "corrupt": False,
        }
        store.close()

    def test_entry_count_properties_are_locked_reads(self, tmp_path, backend):
        # The counts are snapshots safe to read from a /stats thread
        # while a worker absorbs — exercised properly by the stress
        # test below; here just pin they exist on the interface.
        store = open_store(tmp_path)
        assert store.solver_entry_count == 0
        assert store.decl_entry_count == 0
        store.close()

    def test_decl_hit_counts_accumulate_across_runs(self, tmp_path, backend):
        store = open_store(tmp_path)
        store.decl_store("hot", [("sub#1", True, "")])
        store.decl_store("cold", [("sub#2", True, "")])
        store.decl_lookup("hot")
        store.decl_lookup("hot")
        counts = store.decl_hit_counts()
        # Contract: a key absent from the mapping has zero hits.
        assert counts["hot"] == 2
        assert counts.get("cold", 0) == 0
        store.save()
        store.close()

        again = open_store(tmp_path)
        again.decl_lookup("hot")
        counts = again.decl_hit_counts()
        assert counts["hot"] == 3
        assert counts.get("cold", 0) == 0
        again.close()


# ---------------------------------------------------------------------------
# Concurrent writers (the lost-update bug this store exists to fix)
# ---------------------------------------------------------------------------


def _absorb_worker(args: tuple[str, int, int, int]) -> int:
    """One writer process: absorb+save a disjoint slice in rounds, so
    concurrent save cycles genuinely interleave."""
    root, start, count, rounds = args
    added = 0
    per_round = count // rounds
    store = open_store(root)
    try:
        for r in range(rounds):
            added += store.absorb(
                cache_with(start + r * per_round, per_round)
            )
            store.decl_store(
                f"decl-{start}-{r}", [(f"sub#{start + r}", True, "")]
            )
            store.save()
    finally:
        store.close()
    return added


class TestConcurrentWriters:
    WRITERS = 4
    PER_WRITER = 48  # divisible by ROUNDS
    ROUNDS = 3

    def test_disjoint_absorbs_yield_the_exact_union(self, tmp_path, backend):
        """Daemon-style and corpus-style absorbers hammering one store
        lose zero verdicts."""
        tasks = [
            (str(tmp_path), w * self.PER_WRITER, self.PER_WRITER,
             self.ROUNDS)
            for w in range(self.WRITERS)
        ]
        with ProcessPoolExecutor(max_workers=self.WRITERS) as pool:
            added = list(pool.map(_absorb_worker, tasks))
        assert sum(added) == self.WRITERS * self.PER_WRITER

        merged = open_store(tmp_path)
        assert merged.kind == backend
        assert merged.solver_entry_count == self.WRITERS * self.PER_WRITER
        # Every verdict is present and correct, not merely counted.
        seeded = SolverCache(maxsize=2 * self.WRITERS * self.PER_WRITER)
        assert merged.seed(seeded) == self.WRITERS * self.PER_WRITER
        for i in range(self.WRITERS * self.PER_WRITER):
            assert seeded.lookup("fourier", key_for(i)) is True, i
        # Declaration records survived from every round of every writer.
        for w in range(self.WRITERS):
            for r in range(self.ROUNDS):
                start = w * self.PER_WRITER
                assert merged.decl_lookup(f"decl-{start}-{r}") == [
                    (f"sub#{start + r}", True, "")
                ]
        merged.close()


# ---------------------------------------------------------------------------
# Corruption
# ---------------------------------------------------------------------------


class TestSqliteCorruption:
    def test_garbage_bytes_cold_start(self, tmp_path):
        (tmp_path / DB_FILENAME).write_bytes(b"\x00garbage, not a database")
        store = open_store(tmp_path)
        assert store.corrupt
        assert store.loaded_solver == store.loaded_decls == 0
        # The rebuilt store works and persists.
        assert store.absorb(cache_with(0, 2)) == 2
        store.decl_store("k", [("sub#1", True, "")])
        store.save()
        store.close()
        fresh = open_store(tmp_path)
        assert not fresh.corrupt
        assert fresh.loaded_solver == 2
        assert fresh.decl_lookup("k") == [("sub#1", True, "")]
        fresh.close()

    def test_malformed_decl_row_is_a_miss(self, tmp_path):
        store = open_store(tmp_path)
        with store._lock:
            store._conn.execute(
                "INSERT INTO decls (key, records) VALUES ('bad', '[[1,2]]')"
            )
        assert store.decl_lookup("bad") is None
        store.close()

    def test_corpus_flags_a_corrupt_sqlite_cache(self, tmp_path):
        (tmp_path / DB_FILENAME).write_bytes(b"garbage")
        report = driver.check_corpus(
            ["bsearch"], jobs=1, cache_dir=str(tmp_path)
        )
        assert report.corrupt_cache
        assert report.all_ok
        assert report.store == "sqlite"


# ---------------------------------------------------------------------------
# Driver integration
# ---------------------------------------------------------------------------


class TestDriverIntegration:
    def test_store_choice_shows_in_the_report(self, tmp_path):
        report = driver.check_corpus(
            ["dotprod"], jobs=1, cache_dir=str(tmp_path)
        )
        assert report.store == "sqlite"
        assert "store: sqlite" in report.render()

    def test_uncached_run_reports_no_store(self):
        report = driver.check_corpus(["dotprod"], jobs=1, cache_dir=None)
        assert report.store == "none"
