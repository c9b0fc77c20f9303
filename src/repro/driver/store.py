"""The persistent verdict store (``.repro-cache/verdicts.sqlite``).

The driver, the corpus runner, the compile commands and the serve
daemon all share one corpus of solved verdicts between processes,
kept in one sqlite database.  Two layers are persisted, both keyed so
that stale entries can never be *wrongly* reused — at worst they are
ignored and the solve falls back to cold:

* **solver verdicts** — ``backend name × canonical goal key → unsat``.
  Canonical keys are invariant under variable renaming, so verdicts
  survive any edit that leaves a goal's shape unchanged.
* **declaration records** — per-declaration goal verdicts keyed by the
  prefix-chain content hash of :mod:`repro.driver.hashing`.

Concurrent writers — a ``repro serve`` daemon and its workers, the
corpus runner's worker processes, a ``repro check-corpus`` run sharing
``.repro-cache/`` — merge at **row** granularity: every writer's
``INSERT OR IGNORE`` lands independently under WAL journaling, so N
processes absorbing disjoint verdict sets always yield their exact
union.

The store also records **cross-run hit counts**: how many later runs
re-used each solver verdict and replayed each declaration record.

Everything stored is content-derived: canonical goal keys quotient by
variable renaming and never mention the interned IR's process-local
node ids, so a store written by one process is exactly as warm for the
next.  A ``verdicts.json`` left by older versions is ignored.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from pathlib import Path

from repro.driver.hashing import SCHEMA_VERSION
from repro.solver.portfolio import SolverCache, decode_key, encode_key

#: A replayable goal verdict: (origin, proved, reason).
GoalRecord = tuple[str, bool, str]

DEFAULT_CACHE_DIR = ".repro-cache"
DB_FILENAME = "verdicts.sqlite"


class SqliteVerdictStore:
    """The verdict store: one sqlite database in WAL mode.

    Concurrency model: every mutation is row-granular (``INSERT OR
    IGNORE`` / per-key ``UPDATE``), so concurrent writers interleave
    without destroying each other's rows — WAL journaling plus a busy
    timeout serialize the physical writes, and the renaming-invariant
    canonical keys make logical conflicts impossible (two writers can
    only ever agree about a key's verdict; the backends are
    deterministic functions of the key).

    Fail-soft: a file that cannot be opened or has a different
    ``user_version`` is dropped and recreated empty (``corrupt`` set),
    and a row that does not decode is dropped, so a bad store costs
    time but never changes a verdict.

    Statistics (monotone within one process, reset only by
    :meth:`clear`): ``loaded_solver`` / ``loaded_decls`` — entries
    found on disk at open time; ``corrupt`` — a file existed but could
    not be trusted; ``decl_hits`` / ``decl_misses`` —
    :meth:`decl_lookup` outcomes this process.
    """

    kind = "sqlite"

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        self.path = self.root / DB_FILENAME
        self._lock = threading.Lock()
        self.loaded_solver = 0
        self.loaded_decls = 0
        self.corrupt = False
        self.decl_hits = 0
        self.decl_misses = 0
        #: decl key -> hits observed this process, not yet flushed.
        self._decl_hit_delta: dict[str, int] = {}
        #: Highest solver rowid already seeded into a cache; rows above
        #: it are what :meth:`refresh` picks up incrementally.
        self._seed_rowid = 0
        self.root.mkdir(parents=True, exist_ok=True)
        self._conn = self._open()
        with self._lock:
            self.loaded_solver = self._count("solver")
            self.loaded_decls = self._count("decls")

    # -- connection management ------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            str(self.path),
            timeout=30.0,
            isolation_level=None,  # autocommit; explicit BEGIN for batches
            check_same_thread=False,  # guarded by self._lock
        )
        conn.execute("PRAGMA busy_timeout = 30000")
        conn.execute("PRAGMA journal_mode = WAL")
        conn.execute("PRAGMA synchronous = NORMAL")
        return conn

    def _init_schema(self, conn: sqlite3.Connection) -> None:
        conn.execute("BEGIN IMMEDIATE")
        conn.execute(
            "CREATE TABLE IF NOT EXISTS solver ("
            " backend TEXT NOT NULL,"
            " key TEXT NOT NULL,"
            " verdict INTEGER NOT NULL,"
            " hits INTEGER NOT NULL DEFAULT 0,"
            " PRIMARY KEY (backend, key))"
        )
        conn.execute(
            "CREATE TABLE IF NOT EXISTS decls ("
            " key TEXT PRIMARY KEY,"
            " records TEXT NOT NULL,"
            " hits INTEGER NOT NULL DEFAULT 0)"
        )
        conn.execute(f"PRAGMA user_version = {int(SCHEMA_VERSION)}")
        conn.execute("COMMIT")

    def _open(self) -> sqlite3.Connection:
        try:
            conn = self._connect()
            version = conn.execute("PRAGMA user_version").fetchone()[0]
            populated = conn.execute(
                "SELECT count(*) FROM sqlite_master"
            ).fetchone()[0]
            if populated and version != SCHEMA_VERSION:
                # Another schema generation's file: drop, never trust.
                conn.execute("BEGIN IMMEDIATE")
                conn.execute("DROP TABLE IF EXISTS solver")
                conn.execute("DROP TABLE IF EXISTS decls")
                conn.execute("COMMIT")
                self.corrupt = True
            self._init_schema(conn)
            return conn
        except sqlite3.DatabaseError:
            # Not a database (garbage bytes, torn write): cold-start.
            try:
                conn.close()
            except Exception:
                pass
            self.corrupt = True
            for suffix in ("", "-wal", "-shm"):
                try:
                    Path(str(self.path) + suffix).unlink()
                except OSError:
                    pass
            conn = self._connect()
            self._init_schema(conn)
            return conn

    # -- solver-verdict layer -------------------------------------------

    def seed(self, cache: SolverCache) -> int:
        """Preload an in-memory solver cache with the persisted
        verdicts; returns how many entries were installed."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT rowid, backend, key, verdict FROM solver"
            ).fetchall()
            if rows:
                self._seed_rowid = max(row[0] for row in rows)
        return self._preload_rows(cache, rows)

    def refresh(self, cache: SolverCache) -> int:
        """Re-seed ``cache`` with the solver verdicts another writer
        appended since the last :meth:`seed`/:meth:`refresh`, tracked
        by a rowid watermark (``INSERT OR IGNORE`` never rewrites
        existing rows, so new rowids are exactly the new verdicts).
        The serve daemon's process-executor parent calls this
        periodically so workers respawned later fork from a view that
        includes verdicts their siblings already persisted.  Returns
        how many entries were installed."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT rowid, backend, key, verdict FROM solver"
                " WHERE rowid > ?",
                (self._seed_rowid,),
            ).fetchall()
            if rows:
                self._seed_rowid = max(
                    self._seed_rowid, max(row[0] for row in rows)
                )
        return self._preload_rows(cache, rows)

    @staticmethod
    def _preload_rows(cache: SolverCache, rows: list) -> int:
        count = 0
        for _rowid, backend, text, verdict in rows:
            # A malformed row is dropped, never trusted: a verdict
            # other than 0/1 must not read as a proof.
            if verdict not in (0, 1):
                continue
            try:
                key = decode_key(text)
            except ValueError:
                continue
            cache.preload(backend, key, verdict == 1)
            count += 1
        return count

    def absorb(self, cache: SolverCache) -> int:
        """Fold an in-memory solver cache's verdicts into the store;
        returns how many entries are new.  Entries the cache actually
        answered queries from (``cache.hit_keys()``) bump the
        persistent per-key hit count."""
        added = 0
        hit_keys = cache.hit_keys()
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                for backend, key, verdict in cache.entries():
                    text = encode_key(key)
                    cur = self._conn.execute(
                        "INSERT OR IGNORE INTO solver"
                        " (backend, key, verdict) VALUES (?, ?, ?)",
                        (backend, text, int(verdict)),
                    )
                    if cur.rowcount:
                        added += 1
                    elif (backend, key) in hit_keys:
                        self._conn.execute(
                            "UPDATE solver SET hits = hits + 1"
                            " WHERE backend = ? AND key = ?",
                            (backend, text),
                        )
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._conn.execute("COMMIT")
        return added

    # -- declaration layer ----------------------------------------------

    def decl_lookup(self, key: str) -> list[GoalRecord] | None:
        """The replayable records for one declaration hash, or
        ``None``.  A hit bumps the key's cross-run hit count (flushed
        by :meth:`save`)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT records FROM decls WHERE key = ?", (key,)
            ).fetchone()
            if row is None:
                self.decl_misses += 1
                return None
            records = _decode_records(row[0])
            if records is None:
                self.decl_misses += 1
                return None
            self.decl_hits += 1
            self._decl_hit_delta[key] = self._decl_hit_delta.get(key, 0) + 1
            return records

    def decl_store(self, key: str, records: list[GoalRecord]) -> None:
        """Record one declaration's verdicts."""
        with self._lock:
            self._conn.execute(
                "INSERT INTO decls (key, records) VALUES (?, ?)"
                " ON CONFLICT(key) DO UPDATE SET records = excluded.records",
                (key, _encode_records(records)),
            )

    def decl_hit_counts(self) -> dict[str, int]:
        """Cross-run hit count per declaration hash: persisted counts
        plus this process's so-far-unflushed hits.  A key absent from
        the mapping has zero hits."""
        with self._lock:
            counts = dict(
                self._conn.execute("SELECT key, hits FROM decls").fetchall()
            )
            for key, delta in self._decl_hit_delta.items():
                counts[key] = counts.get(key, 0) + delta
        return counts

    # -- persistence -----------------------------------------------------

    def save(self) -> None:
        """Flush buffered hit counts.  Verdicts are already durable:
        every absorb/decl_store committed its rows."""
        with self._lock:
            if self._decl_hit_delta:
                self._conn.execute("BEGIN IMMEDIATE")
                try:
                    for key, delta in self._decl_hit_delta.items():
                        self._conn.execute(
                            "UPDATE decls SET hits = hits + ? WHERE key = ?",
                            (delta, key),
                        )
                except BaseException:
                    self._conn.execute("ROLLBACK")
                    raise
                self._conn.execute("COMMIT")
                self._decl_hit_delta.clear()

    def clear(self) -> None:
        """Drop all entries and reset statistics to a cold start."""
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            self._conn.execute("DELETE FROM solver")
            self._conn.execute("DELETE FROM decls")
            self._conn.execute("COMMIT")
            self.loaded_solver = 0
            self.loaded_decls = 0
            self.corrupt = False
            self.decl_hits = 0
            self.decl_misses = 0
            self._decl_hit_delta.clear()
            self._seed_rowid = 0

    def close(self) -> None:
        self.save()
        with self._lock:
            self._conn.close()

    # -- statistics ------------------------------------------------------

    def _count(self, table: str) -> int:
        return self._conn.execute(
            f"SELECT count(*) FROM {table}"  # noqa: S608 - fixed names
        ).fetchone()[0]

    @property
    def solver_entry_count(self) -> int:
        with self._lock:
            return self._count("solver")

    @property
    def decl_entry_count(self) -> int:
        with self._lock:
            return self._count("decls")

    def stats(self) -> dict:
        """Telemetry snapshot (the serve daemon's ``/stats`` ``store``
        object)."""
        return {
            "backend": self.kind,
            "solver_entries": self.solver_entry_count,
            "decl_entries": self.decl_entry_count,
            "loaded_solver": self.loaded_solver,
            "loaded_decls": self.loaded_decls,
            "decl_hits": self.decl_hits,
            "decl_misses": self.decl_misses,
            "corrupt": self.corrupt,
        }


def _encode_records(records: list[GoalRecord]) -> str:
    return json.dumps(
        [list(record) for record in records], separators=(",", ":")
    )


def _decode_records(text: str) -> list[GoalRecord] | None:
    """Parse one decls row; ``None`` for anything malformed (the row
    is then treated as a miss)."""
    try:
        data = json.loads(text)
    except (TypeError, ValueError):
        return None
    if not isinstance(data, list):
        return None
    records: list[GoalRecord] = []
    for record in data:
        if not (
            isinstance(record, list)
            and len(record) == 3
            and isinstance(record[0], str)
            and isinstance(record[1], bool)
            and isinstance(record[2], str)
        ):
            return None
        records.append((record[0], record[1], record[2]))
    return records


def open_store(root: str | Path = DEFAULT_CACHE_DIR) -> SqliteVerdictStore:
    """Open (creating if needed) the verdict store under ``root``."""
    return SqliteVerdictStore(root)
