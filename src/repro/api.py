"""The public pipeline API.

Typical use::

    from repro import api

    report = api.check(source)          # parse + both phases + solve
    assert report.all_proved
    print(report.summary())

    result = api.run(source, "main", [5])   # interpret with counters

``check`` realizes the paper's whole static side: ML inference,
dependent elaboration, constraint generation, existential-variable
elimination and Fourier solving; the returned :class:`CheckReport`
carries the per-goal results, per-site elimination decisions, and the
statistics reported in Table 1.
"""

from __future__ import annotations

import threading
import time
from dataclasses import field

from repro import programs
from repro.core.elaborate import ElabResult, SiteInfo, elaborate_program
from repro.core.env import GlobalEnv
from repro.core.ml_infer import MLInferencer
from repro.indices.terms import EvarStore
from repro.lang import ast
from repro.lang.errors import UnsolvedConstraint
from repro.lang.parser import parse_program
from repro.lang.source import SourceFile
from repro.records import record
from repro.solver.backends import Backend, get_backend, load_backend
from repro.solver.portfolio import (
    GLOBAL_CACHE,
    DifferentialSolver,
    PortfolioSolver,
    SolverCache,
    SolverTelemetry,
    canonical_key_stats,
    instrument,
)
from repro.solver.budget import SolverLimits, fail_soft_lines
from repro.solver.simplify import GoalResult, SolveStats, prove_all
from repro.solver.slice import SliceContext


@record
class CheckReport:
    """Result of statically checking one program."""

    name: str
    source: SourceFile
    program: ast.Program
    env: GlobalEnv
    elab: ElabResult
    goal_results: list[GoalResult]
    stats: SolveStats
    #: Wall-clock seconds for constraint generation (both phases).
    generation_seconds: float
    #: Wall-clock seconds spent in the solver.
    solve_seconds: float
    #: Index-unreachable branches: warnings, not errors.
    warnings: list[str] = field(default_factory=list)
    #: Solver-layer telemetry: queries, per-tier decisions, cache stats.
    telemetry: SolverTelemetry | None = None

    # -- derived ------------------------------------------------------------

    @property
    def num_constraints(self) -> int:
        """Atomic obligations generated (Table 1's "constraints")."""
        return self.elab.count_constraints()

    @property
    def all_proved(self) -> bool:
        return all(result.proved for result in self.goal_results)

    @property
    def failed_goals(self) -> list[GoalResult]:
        return [r for r in self.goal_results if not r.proved]

    @property
    def sites(self) -> dict[str, SiteInfo]:
        return self.elab.sites

    def site_proved(self, site_id: str) -> bool:
        """Did every obligation attached to this call site discharge?"""
        return all(
            r.proved for r in self.goal_results if r.goal.origin == site_id
        )

    @property
    def structural_ok(self) -> bool:
        """Did every *structural* goal discharge?

        Structural goals (empty origin) validate the program's
        annotations: argument guards at user-function call sites,
        result subsumptions, existential witnesses.  Site-tagged goals
        only justify individual access checks, and ``guard:``-tagged
        goals only a division's partiality condition.
        """
        return all(
            r.proved for r in self.goal_results if not r.goal.origin
        )

    def eliminable_sites(self) -> set[str]:
        """Check sites whose run-time check may be omitted.

        Sound policy (see DESIGN.md): a site is eliminable when every
        structural goal holds — so all annotated invariants the site's
        proof assumes are established — and the site's own obligations
        discharged.  A failed obligation at another access site keeps
        *that* site's check but does not veto this one; a failed
        structural goal vetoes everything (some annotation is not
        justified, so no proof that relies on annotations can be
        trusted).
        """
        if not self.structural_ok:
            return set()
        return {
            site_id for site_id in self.elab.sites
            if self.site_proved(site_id)
        }

    def summary(self) -> str:
        lines = [
            f"program:          {self.name}",
            f"constraints:      {self.num_constraints}",
            f"proof goals:      {self.stats.goals} "
            f"({self.stats.proved} proved, {self.stats.failed} failed)",
            f"existential vars: {self.elab.store.created_count} created, "
            f"{self.elab.store.solved_count} solved",
            f"check sites:      {len(self.sites)} "
            f"({len(self.eliminable_sites())} eliminable)",
            f"generation time:  {self.generation_seconds * 1000:.2f} ms",
            f"solve time:       {self.solve_seconds * 1000:.2f} ms",
        ]
        lines.extend(
            fail_soft_lines(self.stats.budget_exhausted, self.stats.contained_crashes)
        )
        if self.telemetry is not None and self.telemetry.queries:
            lines.extend(self.telemetry.lines())
            if self.telemetry.consulted_cache:
                ck_hits, ck_misses, ck_evictions = canonical_key_stats()
                lines.append(
                    f"canonical keys:   {ck_hits} hit(s) / {ck_misses} miss(es) "
                    f"/ {ck_evictions} eviction(s) (process-wide memo)"
                )
        store = self.elab.store
        for result in self.failed_goals:
            where = self.source.describe(result.goal.span)
            lines.append(
                f"UNSOLVED [{where}] {result.goal.text(store)} -- {result.reason}"
            )
        return "\n".join(lines)

    def explain(self, limit: int = 5) -> list[str]:
        """Counterexample-based diagnostics for failed goals (the
        informative error messages of Section 6's future work)."""
        from repro.solver.diagnose import explain_failures

        return explain_failures(self, limit)

    def raise_if_failed(self) -> None:
        if not self.all_proved:
            first = self.failed_goals[0]
            raise UnsolvedConstraint(
                f"{len(self.failed_goals)} unsolved constraint(s); first: "
                f"{first.goal} ({first.reason})",
                first.goal.span,
            )


# ---------------------------------------------------------------------------
# Prelude memoization
# ---------------------------------------------------------------------------
#
# Parsing and ML-inferring prelude.dml is identical work on every
# ``check`` call, yet it used to run *inside* the timed generation
# window — inflating Table 1's generation column and slowing every
# corpus run.  We infer the prelude once into a template
# inferencer and hand each check a fork: the immutable payloads
# (schemes, types, interned index terms) are shared read-only, and
# only the small mutable registries are copied, so a check's own
# declarations (exceptions, typerefs, value bindings, unifier
# solutions) can never leak into the template or into other checks.

_PRELUDE_LOCK = threading.Lock()
_PRELUDE_TEMPLATE: MLInferencer | None = None


def _prelude_inferencer() -> MLInferencer:
    """A fresh inferencer pre-loaded with the elaborated prelude."""
    global _PRELUDE_TEMPLATE
    with _PRELUDE_LOCK:
        if _PRELUDE_TEMPLATE is None:
            inferencer = MLInferencer()
            prelude = parse_program(programs.prelude_source(), "prelude.dml")
            inferencer.infer_program(prelude)
            _PRELUDE_TEMPLATE = inferencer
        template = _PRELUDE_TEMPLATE
    # The template is never mutated after construction, so forking
    # outside the lock is safe (and keeps concurrent checks parallel).
    return template.fork()


def reset_prelude_cache() -> None:
    """Drop the memoized prelude (test isolation)."""
    global _PRELUDE_TEMPLATE
    with _PRELUDE_LOCK:
        _PRELUDE_TEMPLATE = None


@record
class Elaboration:
    """Output of the untimed+timed front half of ``check``: everything
    up to (and including) constraint generation, before any solving."""

    source: SourceFile
    program: ast.Program
    env: GlobalEnv
    store: EvarStore
    elab: ElabResult
    #: Wall-clock seconds for constraint generation (both phases),
    #: excluding the memoized prelude.
    generation_seconds: float


def elaborate_source(
    source: str, name: str = "<input>", include_prelude: bool = True
) -> Elaboration:
    """Parse, ML-infer, and dependently elaborate one program.

    The shared front half of :func:`check` and the parallel driver
    (:mod:`repro.driver`).  ``generation_seconds`` covers exactly the
    per-program work: prelude elaboration is memoized process-wide and
    excluded from the timing.
    """
    inferencer = _prelude_inferencer() if include_prelude else MLInferencer()

    started = time.perf_counter()
    src = SourceFile(source, name)
    program = parse_program(source, name)
    inferred = inferencer.infer_program(program)

    store = EvarStore()
    elab = elaborate_program(inferred.program, inferred.env, store)
    generation = time.perf_counter() - started
    return Elaboration(
        source=src,
        program=inferred.program,
        env=inferred.env,
        store=store,
        elab=elab,
        generation_seconds=generation,
    )


def check(
    source: str,
    name: str = "<input>",
    backend: Backend | str = "fourier",
    include_prelude: bool = True,
    cache: SolverCache | bool | None = None,
    telemetry: SolverTelemetry | None = None,
    limits: SolverLimits | None = None,
    slice_goals: bool = True,
    slicing: SliceContext | None = None,
) -> CheckReport:
    """Run the full static pipeline on ``source``.

    ``cache`` memoizes backend verdicts on canonically renamed atom
    systems: pass a :class:`SolverCache` (shareable across calls — the
    second check of the same program answers its queries from the
    cache), ``True`` for the process-wide shared cache, or ``None`` to
    disable.  ``telemetry`` accumulates solver statistics; pass one
    instance to several checks to aggregate, or leave ``None`` for a
    fresh per-report one (surfaced by :meth:`CheckReport.summary`).

    ``limits`` caps the per-goal proof effort (step budget and/or
    wall-clock timeout).  Solving is *fail-soft*: a goal that exhausts
    its budget — or whose backend crashes — is recorded as unproved
    with a reason and its run-time check is kept; ``check`` itself
    never raises for solver trouble.

    ``slice_goals`` controls the verdict-preserving goal-preprocessing
    layer (:mod:`repro.solver.slice`: relevancy slicing, subsumption,
    shared-prefix Fourier).  ``False`` is the ``--no-slice`` escape
    hatch; verdicts are identical either way.  ``slicing`` overrides
    the per-check context with a caller-owned one, shared across
    checks so refuted cores and presolved prefixes stay warm (the
    daemon does the same through
    :func:`repro.driver.core.check_program`, which takes the same
    parameter); the layer's invariant (never changes a verdict) makes
    the sharing observationally equivalent to a fresh context.
    """
    backend, telemetry = _resolve_backend(backend, cache, telemetry)
    if slicing is None:
        slicing = SliceContext(telemetry) if slice_goals else None
    elif not slice_goals:
        slicing = None

    front = elaborate_source(source, name, include_prelude)
    src, store, elab = front.source, front.store, front.elab

    stats = SolveStats()
    solve_started = time.perf_counter()
    goal_results: list[GoalResult] = []
    for dc in elab.decl_constraints:
        goal_results.extend(
            prove_all(
                dc.constraint, store, backend, stats,
                limits=limits, slicing=slicing,
            )
        )
    warnings = _unreachable_warnings(elab, store, backend, src, limits, slicing)
    solve_seconds = time.perf_counter() - solve_started
    telemetry.budget_exhausted += stats.budget_exhausted
    telemetry.contained_crashes += stats.contained_crashes

    return CheckReport(
        name=name,
        source=src,
        program=front.program,
        env=front.env,
        elab=elab,
        goal_results=goal_results,
        stats=stats,
        generation_seconds=front.generation_seconds,
        solve_seconds=solve_seconds,
        warnings=warnings,
        telemetry=telemetry,
    )


def _resolve_backend(
    backend: Backend | str,
    cache: SolverCache | bool | None,
    telemetry: SolverTelemetry | None,
) -> tuple[Backend, SolverTelemetry]:
    """Build the instrumented backend stack for one ``check`` run.

    The composite backends are constructed here (rather than fetched
    from the registry) so their tier decisions land in *this* run's
    telemetry instead of the process-global one.
    """
    if telemetry is None:
        telemetry = SolverTelemetry()
    if cache is True:
        cache = GLOBAL_CACHE
    elif cache is False:
        cache = None
    if isinstance(backend, str):
        # Non-default backends import their solver modules lazily; do
        # it here so no solve time or tier telemetry includes an import.
        load_backend(backend)
    if backend == "portfolio":
        backend = Backend(
            "portfolio", PortfolioSolver(telemetry).unsat, integer_complete=True
        )
    elif backend == "differential":
        backend = Backend("differential", DifferentialSolver("fourier", telemetry).unsat)
    elif isinstance(backend, str):
        backend = get_backend(backend)
    return instrument(backend, telemetry, cache), telemetry


def _unreachable_warnings(
    elab: ElabResult,
    store: EvarStore,
    backend: Backend,
    src: SourceFile,
    limits: SolverLimits | None = None,
    slicing: SliceContext | None = None,
) -> list[str]:
    """Index-aware dead-code detection: a branch whose hypotheses are
    contradictory can never execute (e.g. the nil clause of a match on
    a provably non-empty list).  Purely informative."""
    from repro.indices import terms
    from repro.solver.simplify import Goal, prove_goal

    warnings = []
    for probe in elab.probes:
        goal = Goal(probe.rigid, probe.hyps, terms.FALSE)
        if prove_goal(goal, store, backend, limits=limits, slicing=slicing).proved:
            warnings.append(
                f"{src.describe(probe.span)}: unreachable {probe.what} "
                f"(index hypotheses are contradictory)"
            )
    for missing in elab.coverage:
        goal = Goal(missing.rigid, missing.hyps, terms.FALSE)
        if not prove_goal(goal, store, backend, limits=limits, slicing=slicing).proved:
            warnings.append(
                f"{src.describe(missing.span)}: match may not be "
                f"exhaustive (missing: {missing.missing})"
            )
    return warnings


def check_corpus(
    program_name: str,
    backend: Backend | str = "fourier",
    cache: SolverCache | bool | None = None,
    telemetry: SolverTelemetry | None = None,
    limits: SolverLimits | None = None,
    slice_goals: bool = True,
) -> CheckReport:
    """Check one of the bundled corpus programs by name."""
    source = programs.load_source(program_name)
    return check(
        source,
        f"{program_name}.dml",
        backend,
        cache=cache,
        telemetry=telemetry,
        limits=limits,
        slice_goals=slice_goals,
    )


@record
class CompileResult:
    """Everything one end-to-end ``compile`` produced: the static
    report, the (dialect-gated) elimination plan, and the loadable
    generated module."""

    report: CheckReport
    plan: "object"  # EliminationPlan (typed loosely: elim imports api)
    module: "object"  # GeneratedModule
    dialect: str

    def summary(self) -> str:
        return (
            f"{len(self.plan.unchecked)}/{len(self.report.sites)} "
            f"checks eliminated (dialect {self.dialect})"
        )


def compile(  # noqa: A001 - mirrors the CLI verb
    source: str,
    name: str = "<input>",
    dialect: str = "plain",
    backend: Backend | str = "fourier",
    include_prelude: bool = True,
    cache: SolverCache | bool | None = None,
    telemetry: SolverTelemetry | None = None,
    limits: SolverLimits | None = None,
    slice_goals: bool = True,
    instrument: bool = False,
) -> CompileResult:
    """Check ``source``, plan elimination for ``dialect``, and compile
    to a loadable Python module — the full static-to-runtime pipeline
    behind ``repro compile`` and ``repro compile-and-run``.

    The elimination plan is issued for the requested dialect (a
    dialect may keep extra checks but can never eliminate a site the
    plan kept), and the generated module carries the dialect so
    :meth:`GeneratedModule.run` can adapt Python-native arguments into
    its value representation.
    """
    # Local imports: elim imports this module at top level.
    from repro.compile.elim import plan_elimination
    from repro.compile.pycodegen import compile_program

    report = check(
        source,
        name,
        backend,
        include_prelude,
        cache=cache,
        telemetry=telemetry,
        limits=limits,
        slice_goals=slice_goals,
    )
    plan = plan_elimination(report, dialect)
    module = compile_program(
        report.program,
        report.env,
        plan.unchecked,
        name=name,
        instrument=instrument,
        dialect=dialect,
    )
    return CompileResult(report, plan, module, plan.dialect)
