"""Span recording for the benchmark's traced runs (``--trace 1``).

The checker has no span code of its own, so the benchmark records
spans from outside: :func:`install` replaces each layer's public
function, where its callers look it up, with a timing wrapper, runs
the workload through the unchanged entry points, and restores the
originals afterwards.  A wrapper records only while an operation span
is open, so set-up and reference computations stay out of the trace.

A span holds a name, ``perf_counter`` bounds, its parent, the
operation it belongs to and a few counters read off the layer's
result.  A layer's self time is its duration minus the time its child
spans cover; the operation root's self time is what no layer span
covers and is reported as ``other``.

The recorder keeps one stack and is not thread-safe: traced work runs
on one thread.
"""

from __future__ import annotations

import functools
import hashlib
import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from harness import percentile

#: Self time of these layers is reported by every workload's traced run
#: (the per-layer metrics of ``BENCHMARK.json``).
CORE_LAYERS = (
    "lang.parse", "core.infer", "core.elaborate",
    "solver.extract", "solver.prove", "solver.probes",
)


class Span:
    __slots__ = ("id", "name", "parent", "op", "start", "end", "counters")

    def __init__(self, span_id: int, name: str, parent: int | None,
                 op: int | None, start: float) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.op = op
        self.start = start
        self.end = start
        self.counters: dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; written out when the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 1
        #: Operation root ids whose spans count towards the metrics.
        self.timed_ops: list[int] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            self._next_id, name,
            parent.id if parent is not None else None,
            parent.op if parent is not None else self._next_id,
            time.perf_counter(),
        )
        self._next_id += 1
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        assert popped is span, "spans closed out of order"
        self.spans.append(span)

    @contextmanager
    def op(self, warmup: bool = False) -> Iterator[Span]:
        """One benchmark operation: the root every layer span nests in.
        Warm-up operations are traced but left out of the metrics."""
        if self._stack:
            raise RuntimeError("operations do not nest")
        span = self._open("op")
        try:
            yield span
        finally:
            self._close(span)
            if not warmup:
                self.timed_ops.append(span.id)

    @contextmanager
    def span(self, name: str) -> Iterator[Span | None]:
        """A span around benchmark code; a no-op outside operations."""
        if not self._stack:
            yield None
            return
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn: Callable, name: str,
             counters: Callable[[Any], dict] | None = None) -> Callable:
        """``fn`` with a span around every call made inside an
        operation; ``counters`` reads counts off the result (inside the
        span, so its cost is charged to the layer, not to ``other``)."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self._stack:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if counters is not None:
                    span.counters.update(counters(result))
                return result
            finally:
                self._close(span)

        return traced

    def add(self, name: str, start: float, end: float, parent: int | None,
            op: int, counters: dict | None = None) -> Span:
        """Record a span measured elsewhere (a child process: on Linux
        ``perf_counter`` is the system-wide monotonic clock, so child
        and parent bounds are comparable)."""
        span = Span(self._next_id, name, parent, op, start)
        self._next_id += 1
        span.end = end
        if counters:
            span.counters.update(counters)
        self.spans.append(span)
        return span

    def graft(self, records: list[dict], parent: Span) -> None:
        """Add a child process's exported spans under ``parent``."""
        ids: dict[int, int] = {}
        for record in sorted(records, key=lambda r: r["id"]):
            span = self.add(
                record["name"], record["start"], record["end"],
                ids.get(record["parent"], parent.id), parent.op,
                record["counters"],
            )
            ids[record["id"]] = span.id

    def export(self) -> list[dict]:
        return [
            {"id": s.id, "name": s.name, "parent": s.parent,
             "start": s.start, "end": s.end, "counters": s.counters}
            for s in self.spans
        ]

    # -- output ------------------------------------------------------------

    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON (any trace viewer opens it)."""
        covered = _child_time(self.spans)
        origin = min((s.start for s in self.spans), default=0.0)
        events = []
        for s in sorted(self.spans, key=lambda s: (s.start, s.id)):
            events.append({
                "name": s.name,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (s.start - origin) * 1e6,
                "dur": s.duration * 1e6,
                "args": {
                    "id": s.id,
                    "parent": s.parent,
                    "op": s.op,
                    "self_us": (s.duration - covered[s.id]) * 1e6,
                    **s.counters,
                },
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def timed_spans(self) -> list[Span]:
        timed = set(self.timed_ops)
        return [s for s in self.spans if s.op in timed]

    def totals(self) -> dict[str, float]:
        """Every numeric counter summed over the timed operations."""
        totals: dict[str, float] = defaultdict(float)
        for s in self.timed_spans():
            for key, value in s.counters.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    totals[key] += value
        return totals

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics over the timed operations: self time per
        operation for every span name, counts per operation, ratios,
        and the share of operation wall time the layer spans cover."""
        spans = self.timed_spans()
        ops = len(self.timed_ops)
        if not ops:
            return {}
        covered = _child_time(spans)
        self_time: dict[str, float] = defaultdict(float)
        totals = self.totals()
        coverage = []
        goal_ms = []
        for s in spans:
            own = s.duration - covered[s.id]
            if s.name == "op":
                self_time["other"] += own
                coverage.append(1.0 - own / s.duration if s.duration else 1.0)
                continue
            self_time[s.name] += own
            if s.name == "solver.prove":
                goal_ms.append(s.duration * 1000.0)
        metrics: dict[str, float] = {}
        for name in set(self_time) | set(CORE_LAYERS):
            metrics[f"{name}_ms"] = self_time.get(name, 0.0) * 1000.0 / ops
        metrics["trace.coverage"] = min(coverage)
        metrics["trace.coverage_mean"] = statistics.fmean(coverage)
        metrics["solver.goal_p99_ms"] = percentile(goal_ms, 0.99) if goal_ms else 0.0
        metrics["solver.goals"] = len(goal_ms) / ops
        for key in ("constraints", "cases", "queries", "subsumption_hits",
                    "prefix_reuses", "budget_exhausted"):
            prefix = "core" if key == "constraints" else "solver"
            metrics[f"{prefix}.{key}"] = totals[key] / ops
        metrics["solver.cache_hit_ratio"] = _ratio(
            totals["cache_hits"], totals["queries"])
        metrics["solver.atoms_kept_ratio"] = _ratio(
            totals["atoms_after"], totals["atoms_before"])
        if totals["goals_replayed"] or totals["decl_hits"] or totals["decl_misses"]:
            metrics["driver.replay_ratio"] = _ratio(
                totals["goals_replayed"], totals["goals"])
            metrics["driver.decl_hit_ratio"] = _ratio(
                totals["decl_hits"], totals["decl_hits"] + totals["decl_misses"])
        return metrics

    def inclusive_ms(self, name: str) -> float:
        """Mean inclusive duration of the named spans in timed ops."""
        spans = [s.duration for s in self.timed_spans() if s.name == name]
        return statistics.fmean(spans) * 1000.0 if spans else 0.0


def _child_time(spans: list[Span]) -> dict[int, float]:
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return covered


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# Counters read off layer results
# ---------------------------------------------------------------------------


def verdict_digest(goal_results: list) -> str:
    """A digest of the ``(origin, proved, reason)`` verdict triples —
    the currency the traced and untraced paths are compared in."""
    triples = [[r.goal.origin, r.proved, r.reason] for r in goal_results]
    return hashlib.sha1(json.dumps(triples).encode()).hexdigest()


def _report_counters(report: Any) -> dict:
    tel = report.telemetry
    counters = {
        "program": report.name,
        "constraints": report.num_constraints,
        "goals": report.stats.goals,
        "budget_exhausted": report.stats.budget_exhausted,
        "verdicts": verdict_digest(report.goal_results),
    }
    if tel is not None:
        counters.update(
            queries=tel.queries, cache_hits=tel.cache_hits,
            atoms_before=tel.atoms_before, atoms_after=tel.atoms_after,
            subsumption_hits=tel.subsumption_hits,
            prefix_reuses=tel.prefix_reuses,
        )
    return counters


def _driver_counters(outcome: Any) -> dict:
    counters = _report_counters(outcome.report)
    counters.update(
        goals_replayed=outcome.driver.goals_replayed,
        decl_hits=outcome.driver.decl_hits,
        decl_misses=outcome.driver.decl_misses,
    )
    return counters


def _goal_counters(result: Any) -> dict:
    return {"cases": result.cases}


def _plan_counters(plan: Any) -> dict:
    return {"sites": len(plan.sites), "unchecked": len(plan.unchecked)}


def _codegen_counters(module: Any) -> dict:
    return {"gen_lines": module.source.count("\n")}


class TracedStore:
    """Delegating verdict-store wrapper that times each store call;
    everything else passes through to the real store."""

    _TIMED = {
        "seed": "driver.store_seed",
        "decl_lookup": "driver.store_lookup",
        "decl_hit_counts": "driver.store_lookup",
        "decl_store": "driver.store_write",
        "absorb": "driver.store_save",
        "save": "driver.store_save",
        "clear": "driver.store_clear",
        "close": "driver.store_save",
    }

    def __init__(self, store: Any, tracer: Tracer) -> None:
        self._store = store
        for attr, name in self._TIMED.items():
            setattr(self, attr, tracer.wrap(getattr(store, attr), name))

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._store, attr)


#: (module, attribute, span name, counters).  Each attribute is patched
#: where its callers look it up: ``api`` and ``driver.core`` import the
#: solver entry points by name, ``prove_all`` and the reachability
#: probes find them in ``simplify``.
PATCHES: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("repro.api", "parse_program", "lang.parse", None),
    ("repro.core.ml_infer", "MLInferencer.infer_program", "core.infer", None),
    ("repro.api", "elaborate_program", "core.elaborate", None),
    ("repro.solver.simplify", "extract_goals", "solver.extract", None),
    ("repro.solver.simplify", "solve_evars", "solver.extract", None),
    ("repro.solver.simplify", "prove_goal", "solver.prove", _goal_counters),
    ("repro.api", "_unreachable_warnings", "solver.probes", None),
    ("repro.api", "check", "api.check", _report_counters),
    ("repro.api", "compile", "api.compile", None),
    ("repro.driver.core", "extract_goals", "solver.extract", None),
    ("repro.driver.core", "solve_evars", "solver.extract", None),
    ("repro.driver.core", "prove_goal", "solver.prove", _goal_counters),
    ("repro.driver.core", "check_program", "driver.check_program",
     _driver_counters),
    ("repro.compile.elim", "plan_elimination", "compile.plan", _plan_counters),
    ("repro.compile.pycodegen", "compile_program", "compile.codegen",
     _codegen_counters),
    ("repro.compile.pycodegen", "GeneratedModule.load", "compile.load", None),
)


@contextmanager
def install(tracer: Tracer) -> Iterator[None]:
    """Patch every layer entry point whose module is already imported
    (importing more would charge a traced process for modules its
    untraced twin never loads), and restore them on exit."""
    undo: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, replacement: Any) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    try:
        for module_name, path, name, counters in PATCHES:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            owner: Any = module
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            patch(owner, attr, tracer.wrap(getattr(owner, attr), name, counters))
        driver_core = sys.modules.get("repro.driver.core")
        if driver_core is not None:
            open_store = driver_core.open_store
            patch(driver_core, "open_store", tracer.wrap(
                lambda *a, **k: TracedStore(open_store(*a, **k), tracer),
                "driver.store_open",
            ))
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
