"""The incrementally-cached checking driver.

:func:`repro.api.check` is a single-shot pipeline: one program, every
goal re-solved from scratch.  This module turns it into a batch
service:

* **Incremental re-checking** — the persistent
  :class:`~repro.driver.store.SqliteVerdictStore` keeps both solver
  verdicts (canonical-key level) and whole declaration verdict records
  (content-hash level, see :mod:`repro.driver.hashing`) under
  ``.repro-cache/``.  A warm run of an unchanged declaration replays
  its verdicts without a single backend query; an edited declaration
  invalidates only itself and its suffix, and usually still answers
  most backend queries from the persisted solver layer.
* **Corpus runs** — :func:`check_corpus` checks programs one after
  another in this process with one shared solver cache (``jobs=1``,
  the default), or fans them out over a process pool (``jobs > 1``)
  whose workers each write their verdicts through the store; the
  store merges concurrent writers row by row.
* **Telemetry** — per-program wall clock, cache hit rates, and replay
  counts, aggregated corpus-wide by :class:`CorpusReport` (the
  ``repro check-corpus`` CLI prints it).

:func:`check_program` proves each declaration's goals right after its
existential variables are solved, in the order :func:`repro.api.check`
uses, so its verdicts are identical to ``api.check``'s.  It is the
loop behind ``check-corpus`` and behind every ``repro serve`` request
(:mod:`repro.server`): the daemon passes its store, its shared solver
cache and its shared slice context, so an editor re-sending a buffer
replays every declaration above the edit.

Importing this module loads no process pool: ``check_corpus`` imports
``ProcessPoolExecutor`` only when ``jobs > 1``, so the daemon can load
the driver at start-up without paying for ``multiprocessing``.
"""

from __future__ import annotations

import os
import time
from dataclasses import field
from functools import partial
from pathlib import Path

from repro import api, programs
from repro.api import CheckReport
from repro.driver.hashing import decl_keys, prelude_hash
from repro.driver.store import GoalRecord, SqliteVerdictStore, open_store
from repro.lang.errors import DMLError
from repro.lang.source import SourceFile
from repro.records import record
from repro.solver.backends import Backend
from repro.solver.budget import SolverLimits, fail_soft_lines
from repro.solver.portfolio import SolverCache, SolverTelemetry
from repro.solver.simplify import (
    Goal,
    GoalResult,
    SolveStats,
    extract_goals,
    prove_goal,
    solve_evars,
)
from repro.solver.slice import SliceContext


def _effective_jobs(jobs: int) -> int:
    return jobs if jobs > 0 else os.cpu_count() or 1


def _backend_name(backend: Backend | str) -> str:
    return backend if isinstance(backend, str) else backend.name


# ---------------------------------------------------------------------------
# Single-program driver
# ---------------------------------------------------------------------------


@record
class DriverStats:
    """Driver-level telemetry for one checked program."""

    wall_seconds: float = 0.0
    generation_seconds: float = 0.0
    solve_seconds: float = 0.0
    goals: int = 0
    #: Goals answered by replaying a persisted declaration record.
    goals_replayed: int = 0
    decl_hits: int = 0
    decl_misses: int = 0
    #: Solver verdicts preloaded from disk into the in-memory cache.
    preloaded: int = 0


@record
class DriverReport:
    """A :class:`~repro.api.CheckReport` plus driver telemetry."""

    report: CheckReport
    driver: DriverStats

    @property
    def verdicts(self) -> list[GoalRecord]:
        """The per-goal verdict triples, in sequential-checker order."""
        return [
            (r.goal.origin, r.proved, r.reason)
            for r in self.report.goal_results
        ]

    def summary(self) -> str:
        stats = self.driver
        lines = [
            self.report.summary(),
            f"driver:           replayed {stats.goals_replayed}/"
            f"{stats.goals} goal(s), "
            f"decl cache {stats.decl_hits} hit(s) / "
            f"{stats.decl_misses} miss(es), "
            f"{stats.preloaded} solver verdict(s) preloaded",
        ]
        return "\n".join(lines)


def check_program(
    source: str,
    name: str = "<input>",
    *,
    backend: Backend | str = "fourier",
    cache: SolverCache | None = None,
    disk: SqliteVerdictStore | None = None,
    telemetry: SolverTelemetry | None = None,
    include_prelude: bool = True,
    seed: bool = True,
    persist: bool = True,
    limits: SolverLimits | None = None,
    slice_goals: bool = True,
    slicing: SliceContext | None = None,
) -> DriverReport:
    """Check one program with incremental verdict replay.

    Produces goal verdicts byte-identical to ``api.check(source, ...)``
    with the same backend: declarations are processed in order, and
    each one's goals are extracted, its existential variables solved,
    and its goals proved (or replayed) before the next declaration.

    ``disk`` enables the two persistence layers; ``seed=False`` skips
    preloading (the corpus driver seeds a shared cache once), and
    ``persist=False`` skips the solver-verdict write-back (ditto).

    ``limits`` bounds each goal's proof effort (fail-soft: exhaustion
    or a backend crash records the goal unproved and the batch
    continues).  Each *goal* gets its own budget/deadline.

    A declaration record answers only a check under the same backend
    and the same ``limits``: the envelope is part of its key, so a
    budgeted run never replays verdicts a default run proved.

    ``slice_goals`` enables the verdict-preserving goal-preprocessing
    layer (:mod:`repro.solver.slice`); one :class:`SliceContext` is
    shared by all goals, so refuted cores and presolved hypothesis
    prefixes propagate across goals and declarations within the run.
    ``slicing`` has :func:`repro.api.check`'s meaning: a caller-owned
    context used when ``slice_goals`` is on (the daemon shares one
    across requests), a fresh one per call otherwise.
    """
    telemetry = telemetry if telemetry is not None else SolverTelemetry()
    if slicing is None:
        slicing = SliceContext(telemetry) if slice_goals else None
    elif not slice_goals:
        slicing = None
    if cache is None:
        cache = SolverCache(maxsize=65536)
    stats = DriverStats()
    started = time.perf_counter()
    if disk is not None and seed:
        stats.preloaded = disk.seed(cache)

    front = api.elaborate_source(source, name, include_prelude)
    stats.generation_seconds = front.generation_seconds
    store, elab = front.store, front.elab

    # Content keys for every declaration (prefix chain: an edit
    # invalidates its own decl and everything after it).
    prelude = prelude_hash() if include_prelude else "none"
    keys = decl_keys(
        source, front.program.decls,
        backend=_backend_name(backend), prelude=prelude, limits=limits,
    )
    key_by_span = {
        (decl.span.start, decl.span.end): key
        for decl, key in zip(front.program.decls, keys)
    }

    main_backend, telemetry = api._resolve_backend(backend, cache, telemetry)

    solve_started = time.perf_counter()
    solve_stats = SolveStats()
    goal_results: list[GoalResult] = []
    for dc in elab.decl_constraints:
        goals = extract_goals(dc.constraint, store)
        solve_stats.evars_solved += solve_evars(goals, store)
        decl_key = key_by_span.get((dc.decl.span.start, dc.decl.span.end))
        records = (
            disk.decl_lookup(decl_key)
            if disk is not None and decl_key is not None
            else None
        )
        if records is not None and _replayable(records, goals):
            stats.decl_hits += 1
            stats.goals_replayed += len(goals)
            results = [
                GoalResult(goal, proved, reason)
                for goal, (_, proved, reason) in zip(goals, records)
            ]
        else:
            if disk is not None:
                stats.decl_misses += 1
            results = [
                prove_goal(goal, store, main_backend, limits=limits,
                           slicing=slicing)
                for goal in goals
            ]
            # A degraded verdict ("ran out of budget" / "backend
            # crashed") is not a fact about the declaration; pinning it
            # on disk would replay the failure even under a bigger
            # budget or a fixed backend.  Re-solve next run.
            if (
                disk is not None
                and decl_key is not None
                and not any(r.budget_exhausted or r.crashed for r in results)
            ):
                disk.decl_store(
                    decl_key,
                    [(r.goal.origin, r.proved, r.reason) for r in results],
                )
        goal_results.extend(results)
    for result in goal_results:
        solve_stats.goals += 1
        solve_stats.cases += result.cases
        solve_stats.solve_seconds += result.elapsed
        if result.proved:
            solve_stats.proved += 1
        else:
            solve_stats.failed += 1
        if result.budget_exhausted:
            solve_stats.budget_exhausted += 1
        if result.crashed:
            solve_stats.contained_crashes += 1
    stats.goals = solve_stats.goals
    telemetry.budget_exhausted += solve_stats.budget_exhausted
    telemetry.contained_crashes += solve_stats.contained_crashes

    warnings = api._unreachable_warnings(
        elab, store, main_backend, front.source, limits, slicing
    )
    stats.solve_seconds = time.perf_counter() - solve_started

    if disk is not None and persist:
        disk.absorb(cache)
        disk.save()

    stats.wall_seconds = time.perf_counter() - started
    report = CheckReport(
        name=name,
        source=front.source,
        program=front.program,
        env=front.env,
        elab=elab,
        goal_results=goal_results,
        stats=solve_stats,
        generation_seconds=front.generation_seconds,
        solve_seconds=stats.solve_seconds,
        warnings=warnings,
        telemetry=telemetry,
    )
    return DriverReport(report=report, driver=stats)


def _replayable(records: list[GoalRecord], goals: list[Goal]) -> bool:
    """A persisted declaration record is trusted only when it matches
    the freshly extracted goal list shape exactly (count and origins) —
    anything else means the record is stale and must be re-solved."""
    if len(records) != len(goals):
        return False
    return all(
        record[0] == goal.origin for record, goal in zip(records, goals)
    )


# ---------------------------------------------------------------------------
# Corpus driver
# ---------------------------------------------------------------------------


@record
class ProgramResult:
    """Slim, picklable outcome of checking one corpus program."""

    program: str
    ok: bool
    goals: int
    proved: int
    failed: int
    constraints: int
    sites: int
    eliminable: int
    warnings: int
    wall_seconds: float
    generation_seconds: float
    solve_seconds: float
    goals_replayed: int
    decl_hits: int
    decl_misses: int
    queries: int
    cache_hits: int
    cache_misses: int
    #: Goals degraded to unproved on budget/deadline exhaustion.
    budget_exhausted: int = 0
    #: Goals whose backend crash was contained.
    contained_crashes: int = 0
    #: Slicing-layer counters (zero when run with --no-slice).
    sliced_queries: int = 0
    atoms_before: int = 0
    atoms_after: int = 0
    subsumption_hits: int = 0
    prefix_reuses: int = 0
    verdicts: list[GoalRecord] = field(repr=False, default_factory=list)

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.queries if self.queries else 0.0

    def cells(self) -> list[str]:
        return [
            self.program,
            "ok" if self.ok else "FAIL",
            f"{self.proved}/{self.goals}",
            f"{self.eliminable}/{self.sites}",
            f"{self.goals_replayed}/{self.goals}",
            f"{self.cache_hits}/{self.queries}",
            f"{self.generation_seconds * 1000:.1f}",
            f"{self.solve_seconds * 1000:.1f}",
            f"{self.wall_seconds * 1000:.1f}",
        ]


def _program_result(name: str, outcome: DriverReport) -> ProgramResult:
    report, driver = outcome.report, outcome.driver
    telemetry = report.telemetry or SolverTelemetry()
    return ProgramResult(
        program=name,
        ok=report.all_proved,
        goals=report.stats.goals,
        proved=report.stats.proved,
        failed=report.stats.failed,
        constraints=report.num_constraints,
        sites=len(report.sites),
        eliminable=len(report.eliminable_sites()),
        warnings=len(report.warnings),
        wall_seconds=driver.wall_seconds,
        generation_seconds=driver.generation_seconds,
        solve_seconds=driver.solve_seconds,
        goals_replayed=driver.goals_replayed,
        decl_hits=driver.decl_hits,
        decl_misses=driver.decl_misses,
        queries=telemetry.queries,
        cache_hits=telemetry.cache_hits,
        cache_misses=telemetry.cache_misses,
        budget_exhausted=report.stats.budget_exhausted,
        contained_crashes=report.stats.contained_crashes,
        sliced_queries=telemetry.sliced_queries,
        atoms_before=telemetry.atoms_before,
        atoms_after=telemetry.atoms_after,
        subsumption_hits=telemetry.subsumption_hits,
        prefix_reuses=telemetry.prefix_reuses,
        verdicts=outcome.verdicts,
    )


@record
class CorpusReport:
    """Aggregate outcome of one ``check-corpus`` run."""

    rows: list[ProgramResult]
    jobs: int
    backend: str
    wall_seconds: float
    preloaded: int = 0
    solver_entries: int = 0
    corrupt_cache: bool = False
    #: Persistent store in use ("sqlite", or "none" without one).
    store: str = "none"

    @property
    def all_ok(self) -> bool:
        return all(row.ok for row in self.rows)

    @property
    def busy_seconds(self) -> float:
        return sum(row.wall_seconds for row in self.rows)

    @property
    def utilization(self) -> float:
        capacity = self.wall_seconds * max(self.jobs, 1)
        if capacity <= 0:
            return 0.0
        return min(self.busy_seconds / capacity, 1.0)

    @property
    def queries(self) -> int:
        return sum(row.queries for row in self.rows)

    @property
    def cache_hits(self) -> int:
        return sum(row.cache_hits for row in self.rows)

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.queries if self.queries else 0.0

    @property
    def goals(self) -> int:
        return sum(row.goals for row in self.rows)

    @property
    def goals_replayed(self) -> int:
        return sum(row.goals_replayed for row in self.rows)

    @property
    def decl_hits(self) -> int:
        return sum(row.decl_hits for row in self.rows)

    @property
    def decl_misses(self) -> int:
        return sum(row.decl_misses for row in self.rows)

    @property
    def budget_exhausted(self) -> int:
        return sum(row.budget_exhausted for row in self.rows)

    @property
    def contained_crashes(self) -> int:
        return sum(row.contained_crashes for row in self.rows)

    @property
    def sliced_queries(self) -> int:
        return sum(row.sliced_queries for row in self.rows)

    @property
    def atoms_before(self) -> int:
        return sum(row.atoms_before for row in self.rows)

    @property
    def atoms_after(self) -> int:
        return sum(row.atoms_after for row in self.rows)

    @property
    def subsumption_hits(self) -> int:
        return sum(row.subsumption_hits for row in self.rows)

    @property
    def prefix_reuses(self) -> int:
        return sum(row.prefix_reuses for row in self.rows)

    def render(self) -> str:
        from repro.bench.tables import render_table

        headers = [
            "program", "status", "proved", "elim", "replayed",
            "cache", "gen ms", "solve ms", "wall ms",
        ]
        table = render_table(headers, [row.cells() for row in self.rows])
        lines = [
            table,
            "",
            f"programs:         {len(self.rows)} "
            f"({sum(1 for r in self.rows if r.ok)} ok, "
            f"{sum(1 for r in self.rows if not r.ok)} failed)",
            f"run:              backend={self.backend} "
            f"jobs={self.jobs} wall {self.wall_seconds * 1000:.1f} ms, "
            f"worker utilization {self.utilization:.0%}",
            f"solver cache:     {self.cache_hits}/{self.queries} queries "
            f"answered from cache ({self.hit_rate:.0%}), "
            f"{self.preloaded} verdict(s) preloaded from disk, "
            f"{self.solver_entries} persisted (store: {self.store})",
            f"decl cache:       {self.decl_hits} hit(s) / "
            f"{self.decl_misses} miss(es), "
            f"{self.goals_replayed}/{self.goals} goal(s) replayed",
        ]
        if self.sliced_queries:
            lines.append(
                f"slicing:          {self.sliced_queries} case(s), atoms "
                f"{self.atoms_before} -> {self.atoms_after}, "
                f"{self.subsumption_hits} subsumption hit(s), "
                f"{self.prefix_reuses} prefix reuse(s)"
            )
        lines.extend(fail_soft_lines(self.budget_exhausted, self.contained_crashes))
        if self.corrupt_cache:
            lines.append(
                "note:             on-disk cache was corrupt or stale; "
                "solved cold and rewrote it"
            )
        return "\n".join(lines)


def _load_source(name: str, source_dir: str | None) -> str:
    """One corpus program's text: bundled by default, or ``NAME.dml``
    under ``source_dir`` for on-disk corpora (``check-corpus --dir``,
    typically a ``repro fuzz --corpus-scale`` output tree)."""
    if source_dir is None:
        return programs.load_source(name)
    return Path(source_dir, f"{name}.dml").read_text()


def _dir_names(source_dir: str) -> list[str]:
    names = sorted(p.stem for p in Path(source_dir).glob("*.dml"))
    if not names:
        raise FileNotFoundError(f"no *.dml programs under {source_dir!r}")
    return names


def _check_named(name: str, source_dir: str | None, **options) -> ProgramResult:
    """Check one corpus program through :func:`check_program`.  A
    front-end error carries the program's source, so it renders as
    ``NAME.dml:LINE:COL`` with an excerpt."""
    source = _load_source(name, source_dir)
    try:
        outcome = check_program(source, f"{name}.dml", **options)
    except DMLError as exc:
        exc.source = SourceFile(source, f"{name}.dml")
        raise
    return _program_result(name, outcome)


def _check_one_process(
    name: str, source_dir: str | None, cache_dir: str | None, **options
) -> ProgramResult:
    """Process-pool worker: check one program against its own store
    connection, with a private solver cache.  The worker writes its
    declaration records and solver verdicts back through the store,
    so the parent receives only the slim result."""
    disk = open_store(cache_dir) if cache_dir is not None else None
    try:
        return _check_named(name, source_dir, disk=disk, **options)
    finally:
        if disk is not None:
            disk.close()


def check_corpus(
    names: list[str] | None = None,
    *,
    jobs: int = 1,
    backend: str = "fourier",
    cache_dir: str | None = None,
    clear: bool = False,
    limits: SolverLimits | None = None,
    slice_goals: bool = True,
    source_dir: str | None = None,
) -> CorpusReport:
    """Check corpus programs and aggregate a :class:`CorpusReport`.

    ``jobs=1`` checks the programs one after another in this process
    with one shared in-memory solver cache, so late programs reuse
    verdicts solved by early ones.  ``jobs > 1`` fans the programs out
    over that many worker processes (``0`` = the CPU count); each
    worker writes its verdicts back through the store.  ``cache_dir``
    enables the persistent store (``None`` disables it); ``clear``
    wipes it first (a guaranteed-cold run).

    ``source_dir`` switches the program source from the bundled corpus
    to ``*.dml`` files under a directory (names default to every stem,
    sorted) — the consumption side of ``repro fuzz --corpus-scale``.
    """
    if names is None:
        names = (
            _dir_names(source_dir) if source_dir is not None
            else programs.available()
        )
    jobs = _effective_jobs(jobs)
    options = dict(backend=backend, limits=limits, slice_goals=slice_goals)
    disk = open_store(cache_dir) if cache_dir is not None else None
    try:
        if disk is not None and clear:
            disk.clear()
        started = time.perf_counter()
        if jobs > 1:
            from concurrent.futures import ProcessPoolExecutor

            preloaded = disk.loaded_solver if disk is not None else 0
            # Workers seed their caches only from a store that held
            # verdicts before this run.  Otherwise every row comes from
            # a sibling task, and seeding those cost more than it saved
            # (EXPERIMENTS.md, "one verdict store, one corpus pool").
            work = partial(
                _check_one_process, source_dir=source_dir,
                cache_dir=cache_dir, seed=preloaded > 0, **options,
            )
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                rows = list(pool.map(work, names))
        else:
            shared = SolverCache(maxsize=65536)
            preloaded = disk.seed(shared) if disk is not None else 0
            rows = [
                _check_named(
                    name, source_dir, cache=shared, disk=disk, seed=False,
                    persist=False, **options,
                )
                for name in names
            ]
            if disk is not None:
                disk.absorb(shared)
        if disk is not None:
            disk.save()
        return CorpusReport(
            rows=rows,
            jobs=jobs,
            backend=backend,
            wall_seconds=time.perf_counter() - started,
            preloaded=preloaded,
            solver_entries=disk.solver_entry_count if disk is not None else 0,
            corrupt_cache=disk.corrupt if disk is not None else False,
            store=disk.kind if disk is not None else "none",
        )
    finally:
        if disk is not None:
            disk.close()
