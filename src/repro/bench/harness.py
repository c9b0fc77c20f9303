"""Regeneration of the paper's tables and figures.

* :func:`table1` — constraint generation/solving statistics (Table 1),
* :func:`table23` — run times with/without checks and dynamic counts of
  eliminated checks (Tables 2 and 3; the paper's two hardware/compiler
  platforms map onto our two execution engines — generated Python and
  the instrumented interpreter),
* :func:`figure4` — the sample constraints generated from binary
  search (Figure 4),
* :func:`solver_ablation` — per-backend proving power on the whole
  corpus (the Section 3.2 / Section 6 solver discussion),
* :func:`existentials_table` — existential variables created vs.
  eliminated (the Section 3.1 observation that all of them solve),
* :func:`portfolio_table` — the memoized solver portfolio: cold vs.
  warm (shared-cache) solve times and cache telemetry per program,
* :func:`driver_table` — the parallel, incrementally-cached checking
  driver on the whole corpus: sequential-cold vs. parallel-cold vs.
  warm (persisted verdicts) wall clock, cache hit rates, worker
  utilization,
* :func:`intern_table` — hash-consing effectiveness: cold-check wall
  clock, intern-table occupancy, and the hit rate of every memoized
  per-node analysis (free variables, linearization, canonical keys),
* :func:`slice_table` — goal preprocessing: cold corpus wall clock
  with slicing off vs. on (verdict parity asserted), atoms kept per
  sliced goal case, subsumption refutations, shared-prefix resumes.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro import api, programs
from repro.bench.workloads import TABLE_ORDER, WORKLOADS, Workload
from repro.compile import support
from repro.compile.pycodegen import compile_program
from repro.eval.interp import Interpreter
from repro.eval.runtime import RuntimeStats
from repro.lang import ast
from repro.records import record
from repro.solver.backends import backend_names
from repro.solver.portfolio import SolverCache, SolverTelemetry


# ---------------------------------------------------------------------------
# Table 1: constraint generation and solving
# ---------------------------------------------------------------------------


@record
class Table1Row:
    program: str
    constraints: int
    gen_seconds: float
    solve_seconds: float
    annotations: int
    annotation_lines: int
    total_lines: int

    def cells(self) -> list[str]:
        return [
            self.program,
            str(self.constraints),
            f"{self.gen_seconds:.3f}/{self.solve_seconds:.3f}",
            str(self.annotations),
            str(self.annotation_lines),
            f"{self.total_lines} lines",
        ]


def count_annotations(program: ast.Program, source_text: str) -> tuple[int, int]:
    """(number of dependent annotations, source lines they occupy)."""
    spans = []
    count = 0

    def visit_expr(expr: ast.Expr) -> None:
        if isinstance(expr, ast.EAnnot):
            nonlocal count
            count += 1
            spans.append(expr.ty.span)
        for child in _expr_children(expr):
            visit_expr(child)

    def visit_decl(decl: ast.Decl) -> None:
        nonlocal count
        if isinstance(decl, ast.DFun):
            for binding in decl.bindings:
                if binding.where_type is not None:
                    count += 1
                    spans.append(binding.where_type.span)
                if binding.ixparams:
                    count += 1
                for clause in binding.clauses:
                    visit_expr(clause.body)
        elif isinstance(decl, ast.DVal):
            if decl.where_type is not None:
                count += 1
                spans.append(decl.where_type.span)
            visit_expr(decl.expr)
        elif isinstance(decl, ast.DAssert):
            count += len(decl.items)
            spans.append(decl.span)
        elif isinstance(decl, ast.DTyperef):
            count += len(decl.clauses)
            spans.append(decl.span)
        elif isinstance(decl, ast.DTypeAbbrev):
            count += 1
            spans.append(decl.span)

    for decl in program.decls:
        visit_decl(decl)

    lines: set[int] = set()
    for span in spans:
        start_line = source_text.count("\n", 0, span.start) + 1
        end_line = source_text.count("\n", 0, span.end) + 1
        lines.update(range(start_line, end_line + 1))
    return count, len(lines)


def _expr_children(expr: ast.Expr) -> list[ast.Expr]:
    from repro.compile.pycodegen import _expr_children as children

    return children(expr)


def count_code_lines(source_text: str) -> int:
    """Non-blank, non-comment source lines."""
    # Strip (* ... *) comments (nested).
    out = []
    depth = 0
    i = 0
    while i < len(source_text):
        if source_text.startswith("(*", i):
            depth += 1
            i += 2
            continue
        if source_text.startswith("*)", i) and depth:
            depth -= 1
            i += 2
            continue
        if depth == 0 or source_text[i] == "\n":
            out.append(source_text[i])
        i += 1
    stripped = "".join(out)
    return sum(1 for line in stripped.splitlines() if line.strip())


def table1(names: list[str] | None = None, backend: str = "fourier") -> list[Table1Row]:
    rows = []
    for display in names or TABLE_ORDER:
        workload = WORKLOADS[display]
        source = programs.load_source(workload.program)
        report = api.check(source, workload.program, backend=backend)
        annotations, ann_lines = count_annotations(report.program, source)
        rows.append(
            Table1Row(
                program=display,
                constraints=report.num_constraints,
                gen_seconds=report.generation_seconds,
                solve_seconds=report.solve_seconds,
                annotations=annotations,
                annotation_lines=ann_lines,
                total_lines=count_code_lines(source),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Tables 2 and 3: run time with/without checks
# ---------------------------------------------------------------------------


@record
class Table23Row:
    program: str
    with_checks_seconds: float
    without_checks_seconds: float
    checks_eliminated: int

    @property
    def gain_percent(self) -> float:
        if self.with_checks_seconds == 0:
            return 0.0
        return (
            (self.with_checks_seconds - self.without_checks_seconds)
            / self.with_checks_seconds
            * 100.0
        )

    def cells(self) -> list[str]:
        return [
            self.program,
            f"{self.with_checks_seconds:.3f}",
            f"{self.without_checks_seconds:.3f}",
            f"{self.gain_percent:.0f}%",
            f"{self.checks_eliminated:,}",
        ]


def _time_call(fn: Callable[[], Any], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _compiled_runner(
    workload: Workload, unchecked: set[str], preset: str,
    instrument: bool = False, dialect: str = "plain",
) -> Callable[[], Any]:
    report = api.check_corpus(workload.program)
    module = compile_program(
        report.program, report.env, unchecked, workload.program,
        instrument=instrument, dialect=dialect,
    )
    module.load()

    def run() -> Any:
        args = workload.args_for(preset, "compiled")
        args = module.dialect.adapt_args(args)
        return module.call(workload.entry, *args)

    return run


def _interp_runner(
    workload: Workload, unchecked: set[str], preset: str, stats: RuntimeStats
) -> Callable[[], Any]:
    report = api.check_corpus(workload.program)
    interp = Interpreter(report.program, unchecked, stats=stats, env=report.env)

    def run() -> Any:
        args = workload.args_for(preset, "interp")
        return interp.call(workload.entry, *args)

    return run


def table23(
    names: list[str] | None = None,
    preset: str = "default",
    engine: str = "compiled",
    repeats: int = 3,
    dialect: str = "plain",
) -> list[Table23Row]:
    """Measure run time with and without eliminated checks.

    ``engine="compiled"`` (Table 2 analogue) times generated Python;
    ``engine="interp"`` (Table 3 analogue) times the tree-walking
    interpreter — use a smaller preset there.  ``dialect`` selects the
    generated code's value representation (compiled engine only).
    """
    from repro.compile.dialects import get_dialect

    rows = []
    for display in names or TABLE_ORDER:
        workload = WORKLOADS[display]
        report = api.check_corpus(workload.program)
        if not report.all_proved:
            raise AssertionError(f"{workload.program} failed to check")
        unchecked = report.eliminable_sites()

        if engine == "compiled":
            checked_run = _compiled_runner(workload, set(), preset,
                                           dialect=dialect)
            unchecked_run = _compiled_runner(workload, unchecked, preset,
                                             dialect=dialect)
            with_t = _time_call(checked_run, repeats)
            without_t = _time_call(unchecked_run, repeats)
            # Exact dynamic count from one instrumented run.
            counter_run = _compiled_runner(
                workload, unchecked, preset, instrument=True, dialect=dialect
            )
            support.COUNTERS.reset()
            result = get_dialect(dialect).extract_value(counter_run())
            assert workload.validate(result, workload.params(preset))
            eliminated = support.COUNTERS.eliminated
        else:
            stats_checked = RuntimeStats()
            stats_unchecked = RuntimeStats()
            checked_run = _interp_runner(workload, set(), preset, stats_checked)
            unchecked_run = _interp_runner(
                workload, unchecked, preset, stats_unchecked
            )
            with_t = _time_call(checked_run, repeats)
            without_t = _time_call(unchecked_run, repeats)
            eliminated = stats_unchecked.checks_eliminated // max(repeats, 1)

        rows.append(
            Table23Row(
                program=display,
                with_checks_seconds=with_t,
                without_checks_seconds=without_t,
                checks_eliminated=eliminated,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 4: sample constraints from binary search
# ---------------------------------------------------------------------------


def figure4() -> list[str]:
    """The binary-search proof goals involving ``div`` (Figure 4)."""
    report = api.check_corpus("bsearch")
    store = report.elab.store
    lines = []
    for result in report.goal_results:
        goal = result.goal
        hyps = [str(store.resolve(h)) for h in goal.hyps]
        concl = str(store.resolve(goal.concl))
        if "div" not in concl and not any("div" in h for h in hyps):
            continue
        quant = "".join(
            f"forall {name}:{sort}. " for name, sort in goal.rigid.items()
        )
        conj = " /\\ ".join(hyps)
        body = f"({conj}) ==> {concl}" if hyps else concl
        status = "solved" if result.proved else "UNSOLVED"
        lines.append(f"[{status}] {quant}{body}")
    return lines


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------


@record
class SolverRow:
    program: str
    results: dict[str, tuple[int, int, float]]  # backend -> (proved, total, secs)


def solver_ablation(names: list[str] | None = None) -> list[SolverRow]:
    rows = []
    for display in names or TABLE_ORDER:
        workload = WORKLOADS[display]
        results = {}
        for backend in backend_names():
            report = api.check_corpus(workload.program, backend=backend)
            results[backend] = (
                report.stats.proved,
                report.stats.goals,
                report.solve_seconds,
            )
        rows.append(SolverRow(display, results))
    return rows


@record
class ExistentialRow:
    program: str
    created: int
    solved: int
    unsolved_in_failed_goals: int


def existentials_table(names: list[str] | None = None) -> list[ExistentialRow]:
    """Section 3.1: "we have been able to eliminate all the existential
    variables ... in all our examples"."""
    rows = []
    for display in names or TABLE_ORDER:
        workload = WORKLOADS[display]
        report = api.check_corpus(workload.program)
        store = report.elab.store
        unsolved_failing = sum(
            1 for r in report.goal_results
            if not r.proved and "existential" in r.reason
        )
        rows.append(
            ExistentialRow(
                display, store.created_count, store.solved_count,
                unsolved_failing,
            )
        )
    return rows


@record
class PortfolioRow:
    program: str
    fourier_seconds: float
    cold_seconds: float
    warm_seconds: float
    warm_hits: int
    warm_misses: int
    tier_decisions: dict[str, int]  # cold run: tier -> queries decided

    def cells(self) -> list[str]:
        tiers = "/".join(
            str(self.tier_decisions.get(t, 0))
            for t in ("interval", "fourier", "omega")
        )
        return [
            self.program,
            f"{self.fourier_seconds * 1000:.2f}",
            f"{self.cold_seconds * 1000:.2f}",
            f"{self.warm_seconds * 1000:.2f}",
            f"{self.warm_hits}/{self.warm_hits + self.warm_misses}",
            tiers,
        ]


def portfolio_table(names: list[str] | None = None) -> list[PortfolioRow]:
    """The memoization payoff: each program checked cold (fresh cache)
    and warm (the same cache again), against the fourier baseline.

    The warm run answers every backend query from the cache, so its
    solve time bounds the solver's amortized cost under repeated
    checking — the production scenario the portfolio exists for.
    """
    rows = []
    for display in names or TABLE_ORDER:
        workload = WORKLOADS[display]
        baseline = api.check_corpus(workload.program, backend="fourier")

        cache = SolverCache()
        cold_tel = SolverTelemetry()
        cold = api.check_corpus(
            workload.program, backend="portfolio", cache=cache, telemetry=cold_tel
        )
        warm_tel = SolverTelemetry()
        warm = api.check_corpus(
            workload.program, backend="portfolio", cache=cache, telemetry=warm_tel
        )
        assert cold.all_proved == baseline.all_proved
        assert warm.all_proved == cold.all_proved
        rows.append(
            PortfolioRow(
                program=display,
                fourier_seconds=baseline.solve_seconds,
                cold_seconds=cold.solve_seconds,
                warm_seconds=warm.solve_seconds,
                warm_hits=warm_tel.cache_hits,
                warm_misses=warm_tel.cache_misses,
                tier_decisions=dict(cold_tel.decisions),
            )
        )
    return rows


@record
class DriverRow:
    """One whole-corpus run through the checking driver."""

    label: str
    wall_seconds: float
    goals: int
    replayed: int
    queries: int
    cache_hits: int
    utilization: float

    def cells(self) -> list[str]:
        hit_rate = self.cache_hits / self.queries if self.queries else 0.0
        return [
            self.label,
            f"{self.wall_seconds * 1000:.1f}",
            f"{self.replayed}/{self.goals}",
            f"{self.cache_hits}/{self.queries} ({hit_rate:.0%})",
            f"{self.utilization:.0%}",
        ]


def driver_table(jobs: int | None = None, backend: str = "fourier") -> list[DriverRow]:
    """The checking driver's three operating points on the full corpus:
    sequential cold (one process, no store), parallel cold (worker
    processes writing their verdicts through the store), and parallel
    warm (the same pool replaying what the cold run persisted)."""
    import os
    import tempfile

    from repro import driver

    jobs = jobs or os.cpu_count() or 1
    rows = []
    with tempfile.TemporaryDirectory(prefix="repro-driver-bench") as tmp:
        runs = [
            ("sequential cold", dict(jobs=1, cache_dir=None)),
            ("parallel cold", dict(jobs=jobs, cache_dir=tmp)),
            ("parallel warm", dict(jobs=jobs, cache_dir=tmp)),
        ]
        baseline = None
        for label, kwargs in runs:
            report = driver.check_corpus(backend=backend, **kwargs)
            assert report.all_ok, f"driver corpus run failed ({label})"
            verdicts = [row.verdicts for row in report.rows]
            if baseline is None:
                baseline = verdicts
            else:
                assert verdicts == baseline, (
                    f"driver verdicts diverged from sequential ({label})"
                )
            rows.append(
                DriverRow(
                    label=label,
                    wall_seconds=report.wall_seconds,
                    goals=report.goals,
                    replayed=report.goals_replayed,
                    queries=report.queries,
                    cache_hits=report.cache_hits,
                    utilization=report.utilization,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Intern table: hash-consing and memoized normalization
# ---------------------------------------------------------------------------


@record
class InternRow:
    """One line of the intern/memo effectiveness table."""

    label: str
    value: str
    detail: str = ""

    def cells(self) -> list[str]:
        return [self.label, self.value, self.detail]


def intern_table(backend: str = "fourier") -> list[InternRow]:
    """Hash-consing effectiveness on one cold full-corpus check.

    Resets the intern/memo counters (never the table — live nodes keep
    their identity), clears the prelude template and portfolio caches,
    runs the sequential driver cold, and reports construction sharing
    plus the hit rate of every per-node memo.  A construction "hit"
    means some earlier construction already interned the node, so the
    allocation (and every memoized analysis on it) was shared.
    """
    from repro import driver
    from repro.indices import intern
    from repro.solver import portfolio

    api.reset_prelude_cache()
    portfolio.reset_global_state()
    intern.reset_stats()

    started = time.perf_counter()
    report = driver.check_corpus(jobs=1, cache_dir=None, backend=backend)
    wall = time.perf_counter() - started
    assert report.all_ok, "corpus run failed during intern bench"

    stats = intern.intern_stats()
    constructions = stats["hits"] + stats["misses"]
    share = stats["hits"] / constructions if constructions else 0.0
    ck_hits, ck_misses, ck_evictions = portfolio.canonical_key_stats()

    rows = [
        InternRow("cold corpus wall (ms)", f"{wall * 1000:.1f}", "jobs=1, no disk cache"),
        InternRow("interned nodes live", str(stats["live"]), "weakrefs keep the table tight"),
        InternRow(
            "constructions shared",
            f"{stats['hits']}/{constructions} ({share:.0%})",
            "hit = node already interned",
        ),
    ]
    for name, (hits, misses) in stats["memo"].items():
        calls = hits + misses
        rate = hits / calls if calls else 0.0
        rows.append(
            InternRow(f"memo {name}", f"{hits}/{calls} ({rate:.0%})", "per-node slot")
        )
    ck_calls = ck_hits + ck_misses
    ck_rate = ck_hits / ck_calls if ck_calls else 0.0
    rows.append(
        InternRow(
            "memo solver canonical_key",
            f"{ck_hits}/{ck_calls} ({ck_rate:.0%})",
            "cache-key lru over atom systems",
        )
    )
    if ck_evictions:
        rows.append(
            InternRow(
                "canonical-key evictions",
                str(ck_evictions),
                "lru entries displaced",
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Slice table: relevancy slicing, subsumption, shared-prefix Fourier
# ---------------------------------------------------------------------------


def slice_table(backend: str = "fourier") -> list[InternRow]:
    """Goal-preprocessing effectiveness on the cold full corpus.

    Runs the sequential driver twice from scratch — slicing off, then
    slicing on — asserts verdict parity, and reports the wall clocks
    next to the slicing telemetry: atoms kept per goal case, goals
    refuted by subsumption without a solver call, and shared-prefix
    Fourier resumes.  State (prelude templates, portfolio caches) is
    reset before each run so both are genuinely cold.
    """
    from repro import driver
    from repro.solver import portfolio

    def cold_run(slice_goals: bool):
        api.reset_prelude_cache()
        portfolio.reset_global_state()
        started = time.perf_counter()
        report = driver.check_corpus(
            jobs=1, cache_dir=None, backend=backend, slice_goals=slice_goals
        )
        wall = time.perf_counter() - started
        assert report.all_ok, "corpus run failed during slice bench"
        return report, wall

    unsliced, wall_off = cold_run(False)
    sliced, wall_on = cold_run(True)
    assert [row.verdicts for row in sliced.rows] == [
        row.verdicts for row in unsliced.rows
    ], "slicing changed corpus verdicts"

    cases = sliced.sliced_queries
    before = sliced.atoms_before
    after = sliced.atoms_after
    kept = after / before if before else 1.0
    rows = [
        InternRow("cold corpus wall, slicing off (ms)", f"{wall_off * 1000:.1f}",
                  "jobs=1, no disk cache"),
        InternRow("cold corpus wall, slicing on (ms)", f"{wall_on * 1000:.1f}",
                  "same verdicts, asserted"),
        InternRow("goal cases sliced", str(cases), "one per DNF case"),
        InternRow(
            "hypothesis atoms kept",
            f"{after}/{before} ({kept:.0%})",
            f"mean {after / cases:.1f} of {before / cases:.1f} atoms/case"
            if cases else "",
        ),
        InternRow("subsumption refutations", str(sliced.subsumption_hits),
                  "no solver call needed"),
        InternRow("shared-prefix resumes", str(sliced.prefix_reuses),
                  "Fourier restarted mid-elimination"),
    ]
    return rows
