"""The verdict store within one process: round trips, clearing,
corruption.  Concurrent writers and the driver's use of the store are
in test_store.py."""

import os
import sqlite3

from repro.driver.hashing import SCHEMA_VERSION
from repro.driver.store import DB_FILENAME, open_store
from repro.indices.linear import Atom, LinComb
from repro.solver.portfolio import SolverCache, canonical_key, encode_key


def some_key():
    # x - 3 >= 0
    return canonical_key([Atom(">=", LinComb(coeffs=(("x", 1),), const=-3))])


def filled_memory_cache() -> SolverCache:
    cache = SolverCache()
    cache.store("fourier", some_key(), True)
    return cache


class TestRoundTrip:
    def test_solver_and_decl_layers_survive_a_reload(self, tmp_path):
        disk = open_store(tmp_path)
        assert disk.absorb(filled_memory_cache()) == 1
        disk.decl_store("abc123", [("sub#1", True, "")])
        disk.close()

        fresh = open_store(tmp_path)
        assert not fresh.corrupt
        assert fresh.loaded_solver == 1
        assert fresh.loaded_decls == 1
        assert fresh.decl_lookup("abc123") == [("sub#1", True, "")]

        seeded = SolverCache()
        assert fresh.seed(seeded) == 1
        assert seeded.lookup("fourier", some_key()) is True
        # Seeding must not count as a hit in the seeded cache's stats.
        assert seeded.hits == 1  # the lookup just above, nothing else
        fresh.close()

    def test_absorb_counts_only_new_entries(self, tmp_path):
        disk = open_store(tmp_path)
        assert disk.absorb(filled_memory_cache()) == 1
        assert disk.absorb(filled_memory_cache()) == 0
        assert disk.solver_entry_count == 1
        disk.close()

    def test_missing_file_is_a_clean_cold_start(self, tmp_path):
        disk = open_store(tmp_path / "never-written")
        assert not disk.corrupt
        assert disk.loaded_solver == disk.loaded_decls == 0
        disk.close()

    def test_an_old_json_store_is_ignored(self, tmp_path):
        # Older versions kept verdicts in verdicts.json; it is neither
        # imported nor taken for corruption.
        (tmp_path / "verdicts.json").write_text("{not json")
        disk = open_store(tmp_path)
        assert not disk.corrupt
        assert disk.loaded_solver == disk.loaded_decls == 0
        disk.close()

    def test_save_leaves_no_temp_files(self, tmp_path):
        disk = open_store(tmp_path)
        disk.decl_store("k", [("sub#1", True, "")])
        disk.save()
        disk.close()
        # The WAL and shared-memory files go with the last connection.
        assert os.listdir(tmp_path) == [DB_FILENAME]

    def test_clear_resets_statistics(self, tmp_path):
        # Fill, save, and reload so every statistic is nonzero.
        disk = open_store(tmp_path)
        disk.absorb(filled_memory_cache())
        disk.decl_store("abc", [("sub#1", True, "")])
        disk.close()
        warmed = open_store(tmp_path)
        assert warmed.decl_lookup("abc") is not None  # one hit
        assert warmed.decl_lookup("missing") is None  # one miss
        assert warmed.loaded_solver == 1
        assert warmed.loaded_decls == 1
        assert warmed.decl_hits == 1
        assert warmed.decl_misses == 1

        warmed.clear()
        # Post-clear, telemetry must read like a cold start: no phantom
        # warm-load counts after `check-corpus --clear-cache`.
        assert warmed.loaded_solver == 0
        assert warmed.loaded_decls == 0
        assert warmed.decl_hits == 0
        assert warmed.decl_misses == 0
        assert warmed.corrupt is False
        assert warmed.solver_entry_count == 0
        assert warmed.decl_entry_count == 0
        assert warmed.decl_lookup("abc") is None
        warmed.close()

    def test_clear_resets_the_corrupt_flag(self, tmp_path):
        (tmp_path / DB_FILENAME).write_bytes(b"not a database")
        disk = open_store(tmp_path)
        assert disk.corrupt
        disk.clear()
        assert disk.corrupt is False
        disk.close()

    def test_save_preserves_existing_permissions(self, tmp_path):
        disk = open_store(tmp_path)
        disk.close()
        os.chmod(tmp_path / DB_FILENAME, 0o604)
        disk = open_store(tmp_path)
        disk.decl_store("k2", [("sub#2", True, "")])
        disk.absorb(filled_memory_cache())
        disk.close()
        mode = os.stat(tmp_path / DB_FILENAME).st_mode & 0o777
        assert mode == 0o604


class TestCorruption:
    def insert(self, tmp_path, sql: str, params: tuple) -> None:
        """Write a row behind the store's back (an older or buggy
        writer, a hand edit)."""
        open_store(tmp_path).close()
        conn = sqlite3.connect(tmp_path / DB_FILENAME)
        with conn:
            conn.execute(sql, params)
        conn.close()

    def insert_verdict(self, tmp_path, key: str, verdict) -> None:
        self.insert(
            tmp_path,
            "INSERT INTO solver (backend, key, verdict) VALUES (?, ?, ?)",
            ("fourier", key, verdict),
        )

    def test_garbage_bytes(self, tmp_path):
        (tmp_path / DB_FILENAME).write_bytes(b"\x00garbage, not a database")
        disk = open_store(tmp_path)
        assert disk.corrupt
        assert disk.loaded_solver == disk.loaded_decls == 0
        disk.close()

    def test_wrong_schema_version(self, tmp_path):
        disk = open_store(tmp_path)
        disk.absorb(filled_memory_cache())
        disk.close()
        conn = sqlite3.connect(tmp_path / DB_FILENAME)
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        conn.close()

        drifted = open_store(tmp_path)
        assert drifted.corrupt
        assert drifted.loaded_solver == 0
        assert drifted.seed(SolverCache()) == 0
        drifted.close()

    def test_malformed_canonical_key(self, tmp_path):
        self.insert_verdict(tmp_path, "[[1,2,3]]", 1)
        disk = open_store(tmp_path)
        cache = SolverCache()
        assert disk.seed(cache) == 0
        assert list(cache.entries()) == []
        disk.close()

    def test_non_boolean_verdict(self, tmp_path):
        # Only 0 and 1 are verdicts.  Read as a truth value, 7 or
        # 'yes' would seed the cache with a proof nobody made.
        key = some_key()
        other = canonical_key(
            [Atom(">=", LinComb(coeffs=(("x", 1),), const=-4))]
        )
        self.insert_verdict(tmp_path, encode_key(key), 7)
        self.insert_verdict(tmp_path, encode_key(other), "yes")
        disk = open_store(tmp_path)
        cache = SolverCache()
        assert disk.seed(cache) == 0
        assert cache.lookup("fourier", key) is None
        assert cache.lookup("fourier", other) is None
        disk.close()

    def test_malformed_goal_record(self, tmp_path):
        for key, records in (
            ("short", '[["sub#1", true]]'),
            ("untyped", "[[1,2,3]]"),
            ("not-json", "[[oops"),
        ):
            self.insert(
                tmp_path,
                "INSERT INTO decls (key, records) VALUES (?, ?)",
                (key, records),
            )
        disk = open_store(tmp_path)
        for key in ("short", "untyped", "not-json"):
            assert disk.decl_lookup(key) is None, key
        assert disk.decl_misses == 3
        disk.close()

    def test_corrupt_file_is_overwritten_on_save(self, tmp_path):
        (tmp_path / DB_FILENAME).write_bytes(b"garbage")
        disk = open_store(tmp_path)
        assert disk.absorb(filled_memory_cache()) == 1
        disk.decl_store("k", [("sub#1", True, "")])
        disk.close()
        fresh = open_store(tmp_path)
        assert not fresh.corrupt
        assert fresh.loaded_solver == 1
        assert fresh.decl_lookup("k") == [("sub#1", True, "")]
        fresh.close()
