"""The five workloads.  Each is a closed loop: every caller waits for
its answer before sending the next request.  Load comes from this one
process with at most two client threads (``nproc`` is 2 on the box the
sizes were chosen for)."""

from __future__ import annotations

import http.client
import json
import os
import re
import resource
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, ContextManager, Iterator

import spans
import table2
from harness import (
    HERE,
    ROOT,
    SETUP_REPEATS,
    Context,
    Outcome,
    bundled_path,
    child_env,
    closed_loop,
    fresh_dir,
    gmean,
    load_pool,
    parse_summary,
    percentile,
    rss_mb,
    seeded_cycle,
    timed_setup,
)
from repro import api, driver
from repro.compile import support
from repro.compile.pycodegen import compile_program
from repro.indices import intern
from repro.server.client import ServeClient, ServeError
from repro.solver import portfolio
from repro.solver.budget import DEFAULT_LIMITS
from repro.solver.portfolio import SolverCache, SolverTelemetry
from repro.solver.slice import SliceContext

#: Generated programs added to the 14 bundled ones in a corpus pass.
CORPUS_PICKS = 32
#: Concurrent clients (and daemon worker threads) of ``serve``.
SERVE_CLIENTS = 2
#: Seconds the serve clients run between two speed samples.
SERVE_ROUND = 2.0
#: Seconds any one child process may take before it counts as hung.
CHILD_TIMEOUT = 120


def _op(ctx: Context, timed: bool = True) -> ContextManager:
    return ctx.tracer.op(warmup=not timed) if ctx.tracer else nullcontext()


def _span(ctx: Context, name: str) -> ContextManager:
    return ctx.tracer.span(name) if ctx.tracer else nullcontext()


def _verdict_digests(sources: dict[str, str]) -> dict[str, str]:
    """Untraced ``api.check`` verdict digests, keyed like report names."""
    return {
        name: spans.verdict_digest(api.check(source, name).goal_results)
        for name, source in sources.items()
    }


def _check_traced_verdicts(ctx: Context, out: Outcome,
                           reference: dict[str, str]) -> None:
    """The traced path must reach ``api.check``'s verdicts on every
    program it touched; a mismatch fails an operation."""
    for span in ctx.tracer.timed_spans():
        digest = span.counters.get("verdicts")
        if digest is not None:
            name = span.counters["program"]
            out.verify(digest == reference.get(name),
                       f"traced verdicts of {name} differ from api.check")


class IndexCounters:
    """Intern-table, memo and canonical-key counter deltas, summed over
    the operations they were measured around (traced runs only)."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.totals: dict[str, int] = defaultdict(int)

    def add(self, intern_before: dict, intern_after: dict,
            keys_before: tuple, keys_after: tuple) -> None:
        for key in ("hits", "misses"):
            self.totals[key] += intern_after[key] - intern_before[key]
        for name, (hits, misses) in intern_after["memo"].items():
            old_hits, old_misses = intern_before["memo"].get(name, (0, 0))
            self.totals[f"memo.{name}.hits"] += hits - old_hits
            self.totals[f"memo.{name}.misses"] += misses - old_misses
        self.totals["key_hits"] += keys_after[0] - keys_before[0]
        self.totals["key_misses"] += keys_after[1] - keys_before[1]

    def measure(self) -> ContextManager:
        return self._measured() if self.enabled else nullcontext()

    @contextmanager
    def _measured(self) -> Iterator[None]:
        intern_before = intern.intern_stats()
        keys_before = portfolio.canonical_key_stats()
        yield
        self.add(intern_before, intern.intern_stats(),
                 keys_before, portfolio.canonical_key_stats())

    def metrics(self) -> dict[str, float]:
        t = self.totals

        def ratio(hits: int, misses: int) -> float:
            return hits / (hits + misses) if hits + misses else 0.0

        metrics = {
            "indices.intern_hit_ratio": ratio(t["hits"], t["misses"]),
            "indices.canonical_key_hit_ratio": ratio(t["key_hits"], t["key_misses"]),
        }
        for key in list(t):
            if key.startswith("memo.") and key.endswith(".hits"):
                name = key[len("memo."):-len(".hits")]
                metrics[f"indices.memo_hit_ratio.{name}"] = ratio(
                    t[key], t[f"memo.{name}.misses"])
        return metrics


def _finish_trace(ctx: Context, out: Outcome, index: IndexCounters) -> None:
    out.layers.update(ctx.tracer.layer_metrics())
    out.layers.update(index.metrics())


# ---------------------------------------------------------------------------
# cli-cold: a fresh `repro check FILE` process per operation
# ---------------------------------------------------------------------------


def cli_cold(ctx: Context) -> Outcome:
    """The path a terminal or CI user pays: interpreter start, imports,
    the prelude and one program, every time."""
    out = Outcome()
    tracer = ctx.tracer
    names = sorted(ctx.expected)
    order = seeded_cycle(names, ctx.rng("order"))
    index = IndexCounters(ctx.tracer is not None)
    reference = _verdict_digests({
        str(bundled_path(n).relative_to(ROOT)): bundled_path(n).read_text()
        for n in names
    }) if tracer else {}

    def op(timed: bool = True) -> float:
        name = next(order)
        path = str(bundled_path(name).relative_to(ROOT))
        if tracer is None:
            argv = [sys.executable, "-m", "repro.cli", "check", path]
        else:
            argv = [sys.executable, str(HERE / "trace_child.py"), path]
        with _op(ctx, timed) as root:
            started = time.perf_counter()
            proc = subprocess.run(argv, cwd=ROOT, env=child_env(), text=True,
                                  capture_output=True, timeout=CHILD_TIMEOUT)
            elapsed = time.perf_counter() - started
        stdout, code = proc.stdout, proc.returncode
        if tracer is not None:
            stdout, code = _graft_child(tracer, root, proc, index if timed else None,
                                        reference, path, out)
        expected = ctx.expected[name]
        want_code = 0 if expected["proved"] == expected["goals"] else 1
        out.verify(code == want_code and parse_summary(stdout) == expected,
                   f"cli check {name}: exit {code}, {parse_summary(stdout)}")
        return elapsed

    for _ in range(SETUP_REPEATS):
        # The first invocation of a fresh checkout also compiles the
        # package's bytecode; the median keeps it out of setup_s.
        timed_setup(out, ctx.probe, lambda: op(timed=False))
        out.warmup += 1
    out.ops, out.window = closed_loop(ctx.seconds, op, ctx.probe)
    out.peak_rss_mb = rss_mb(resource.RUSAGE_CHILDREN)
    if tracer is not None:
        _finish_trace(ctx, out, index)
    return out


def _graft_child(tracer: spans.Tracer, root: spans.Span,
                 proc: subprocess.CompletedProcess, index: IndexCounters | None,
                 reference: dict[str, str], path: str,
                 out: Outcome) -> tuple[str, int]:
    """Fold a traced child's report into this run's trace."""
    try:
        data = _json_last_line(proc.stdout)
    except ValueError:
        return proc.stdout, proc.returncode
    # Spawn until the child's first statement is interpreter start-up;
    # its report until the process is reaped is interpreter teardown.
    tracer.add("startup.interpreter", root.start, data["started"], root.id, root.op)
    tracer.add("shutdown.interpreter", data["finished"], root.end, root.id, root.op)
    tracer.graft(data["spans"], root)
    if index is not None:
        index.add(data["intern"][0], data["intern"][1],
                  tuple(data["canonical_keys"][0]), tuple(data["canonical_keys"][1]))
    out.verify(data["verdicts"] == reference[path],
               f"traced verdicts of {path} differ from api.check")
    return data["stdout"], data["code"]


def _json_last_line(text: str) -> Any:
    lines = text.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# corpus-cold / corpus-warm: one check_corpus pass per operation
# ---------------------------------------------------------------------------


def _corpus(ctx: Context, warm: bool) -> Outcome:
    out = Outcome()
    pool = load_pool()
    rng = ctx.rng("programs")
    names = sorted(ctx.expected) + rng.sample(sorted(pool), CORPUS_PICKS)
    rng.shuffle(names)
    source_dir = ctx.work / "corpus"
    store_dir = ctx.work / "store"
    index = IndexCounters(ctx.tracer is not None)

    def stage() -> None:
        fresh_dir(source_dir)
        for name in names:
            text = pool[name].source if name in pool else bundled_path(name).read_text()
            (source_dir / f"{name}.dml").write_text(text)

    def verify(report: driver.CorpusReport) -> None:
        rows = {row.program: row for row in report.rows}
        wrong = []
        for name in names:
            row = rows.get(name)
            if row is None:
                wrong.append(f"{name}: missing")
                continue
            got = {"goals": row.goals, "proved": row.proved,
                   "sites": row.sites, "eliminable": row.eliminable}
            if name in pool:
                want = {"sites": pool[name].sites,
                        "eliminable": pool[name].eliminable}
                got = {key: got[key] for key in want}
            else:
                want = ctx.expected[name]
            if got != want:
                wrong.append(f"{name}: {got} != {want}")
        out.verify(not wrong and len(report.rows) == len(names),
                   f"corpus pass: {'; '.join(wrong[:3])}")

    goals: list[int] = []
    replayed: list[float] = []

    def one_pass(clear: bool, timed: bool) -> float:
        api.reset_prelude_cache()
        portfolio.reset_global_state()
        with (index.measure() if timed else nullcontext()), _op(ctx, timed):
            started = time.perf_counter()
            report = driver.check_corpus(
                names, jobs=1, cache_dir=str(store_dir), clear=clear,
                source_dir=str(source_dir),
            )
            elapsed = time.perf_counter() - started
        verify(report)
        if timed:
            goals.append(report.goals)
            replayed.append(report.goals_replayed / report.goals)
        return elapsed

    def set_up() -> None:
        stage()
        one_pass(clear=True, timed=False)

    for _ in range(SETUP_REPEATS):
        # corpus-cold: stage and run the warm-up pass; corpus-warm: the
        # same work is the pass that fills the store every timed pass
        # replays from.
        timed_setup(out, ctx.probe, set_up)
        out.warmup += 1
    reference = _verdict_digests({
        f"{name}.dml": (source_dir / f"{name}.dml").read_text() for name in names
    }) if ctx.tracer else {}
    with spans.install(ctx.tracer) if ctx.tracer else nullcontext():
        out.ops, out.window = closed_loop(
            ctx.seconds, lambda: one_pass(clear=not warm, timed=True), ctx.probe)
    out.peak_rss_mb = rss_mb(resource.RUSAGE_SELF)
    out.extra["goals_per_s"] = (statistics.median(
        n / (seconds * f)
        for n, (_, _, seconds), f in zip(goals, out.ops, out.scales(ctx.probe))
    ), "1/s")
    out.extra["replayed_ratio"] = (statistics.median(replayed), "ratio")
    if ctx.tracer is not None:
        _check_traced_verdicts(ctx, out, reference)
        _finish_trace(ctx, out, index)
    return out


def corpus_cold(ctx: Context) -> Outcome:
    """Solver-heavy: every pass clears the store and re-solves."""
    return _corpus(ctx, warm=False)


def corpus_warm(ctx: Context) -> Outcome:
    """Every goal replays from the store filled in set-up, so the
    solver is bypassed and the front end and store reads dominate."""
    return _corpus(ctx, warm=True)


# ---------------------------------------------------------------------------
# serve: two kept-alive clients against a `repro serve` daemon
# ---------------------------------------------------------------------------


_LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")


def _spawn_daemon(ctx: Context, index: int, log: Any,
                  cpu: int) -> tuple[subprocess.Popen, int]:
    cache_dir = fresh_dir(ctx.work / f"serve-cache-{index}")
    env = child_env()
    env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--jobs", str(SERVE_CLIENTS), "--cache-dir", str(cache_dir)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=log, text=True,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    ready, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT)
    line = proc.stdout.readline() if ready else ""
    match = _LISTENING.search(line)
    if match is None:
        _stop_daemon(proc)
        raise RuntimeError(f"daemon did not start (first line {line!r})")
    return proc, int(match[1])


def _stop_daemon(proc: subprocess.Popen) -> None:
    """SIGINT is the daemon's clean shutdown (it flushes its store)."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def serve(ctx: Context) -> Outcome:
    """The editor/daemon path: warm prelude and caches, so request
    latency is set by the front end and lock contention, not solving."""
    out = Outcome()
    pool = load_pool()
    order = seeded_cycle(sorted(pool), ctx.rng("order"))
    lock = threading.Lock()

    def client_loop(client: ServeClient, take: Callable[[], str | None],
                    deadline: float) -> list[tuple]:
        records = []
        while True:
            name = take()
            if name is None:
                break
            started = time.perf_counter()
            try:
                answer, error = client.check(pool[name].source, f"{name}.dml"), None
            except (ServeError, OSError, http.client.HTTPException) as exc:
                answer, error = None, str(exc)
            ended = time.perf_counter()
            records.append((started, name, ended - started, answer, error))
            if ended >= deadline:
                break
        return records

    def run_clients(clients: list[ServeClient], take: Callable[[], str | None],
                    deadline: float, rounds: float) -> list[tuple]:
        """Every record, in the order the requests were sent.  The
        clients run in rounds of ``rounds`` seconds, and the box's speed
        is sampled between rounds, while the daemon is idle: sampled
        under load, the kernel would also measure the daemon."""
        records: list[tuple] = []
        with ThreadPoolExecutor(max_workers=len(clients)) as executor:
            while True:
                round_started = time.perf_counter()
                round_end = min(round_started + rounds, deadline)
                futures = [executor.submit(client_loop, c, take, round_end)
                           for c in clients]
                done = [record for f in futures for record in f.result()]
                ctx.probe.sample(after=time.perf_counter() - round_started)
                records.extend(done)
                if not done or time.perf_counter() >= deadline:
                    return sorted(records)

    def verify(records: list[tuple]) -> None:
        for _, name, _, answer, error in records:
            truth = pool[name]
            ok = (answer is not None and answer["sites"] == truth.sites
                  and len(answer["eliminable"]) == truth.eliminable)
            detail = error or (answer and (answer["sites"], len(answer["eliminable"])))
            out.verify(ok, f"serve {name}: {detail}")

    # The daemon gets one CPU and the load generator the other, so
    # neither slows the other down and the speed probe times both.
    # Pinning costs the daemon little: its worker threads share the GIL.
    client_cpu, daemon_cpu = ctx.probe.cpus[0], ctx.probe.cpus[-1]
    os.sched_setaffinity(0, {client_cpu})
    daemon = None
    clients: list[ServeClient] = []
    with open(ctx.work / "serve.log", "w") as log:
        try:
            for i in range(SETUP_REPEATS):
                if daemon is not None:
                    _stop_daemon(daemon)
                daemon, port = timed_setup(
                    out, ctx.probe, lambda: _spawn_daemon(ctx, i, log, daemon_cpu))
            clients = [ServeClient(port) for _ in range(SERVE_CLIENTS)]
            # Warm-up: one pass over the pool fills the daemon's caches.
            pending = iter([next(order) for _ in range(len(pool))])

            def take_warm() -> str | None:
                with lock:
                    return next(pending, None)

            def take() -> str:
                with lock:
                    return next(order)

            warm = run_clients(clients, take_warm, float("inf"), float("inf"))
            before = clients[0].stats()
            sampled = ctx.probe.seconds
            started = time.perf_counter()
            timed = run_clients(clients, take, started + ctx.seconds, SERVE_ROUND)
            out.window = time.perf_counter() - started - (ctx.probe.seconds - sampled)
            after = clients[0].stats()
        finally:
            for client in clients:
                client.close()
            if daemon is not None:
                _stop_daemon(daemon)
    verify(warm)
    verify(timed)
    out.warmup = len(warm)
    out.ops = [(start, start + latency, latency) for start, _, latency, _, _ in timed]
    out.peak_rss_mb = rss_mb(resource.RUSAGE_CHILDREN)
    out.extra["serve_p95_ms"] = (percentile(
        [seconds * f * 1000.0 for (_, _, seconds), f in zip(out.ops, out.scales(ctx.probe))],
        0.95), "ms")
    if ctx.tracer is not None:
        server_ms = [a["wall_seconds"] * 1000.0 for *_, a, _ in timed if a]
        out.layers["server.latency_p50_ms"] = statistics.median(server_ms)
        out.layers["server.transport_ms"] = (
            statistics.median(latency for *_, latency in out.ops) * 1000.0
            - statistics.median(server_ms))
        out.layers["server.busy_frac"] = (
            (after["busy_seconds"] - before["busy_seconds"])
            / (out.window * after["jobs"]))
        _serve_replica(ctx, out, pool, warm, timed)
    return out


def _serve_replica(ctx: Context, out: Outcome, pool: dict, warm: list[tuple],
                   timed: list[tuple]) -> None:
    """The daemon's front-end/solver split: the same requests in this
    process, through ``api.check`` with one shared solver cache and
    slice context, as the daemon's thread executor runs them."""
    tracer = ctx.tracer
    index = IndexCounters(ctx.tracer is not None)
    cache = SolverCache(maxsize=65536)
    slicing = SliceContext(SolverTelemetry())
    daemon_verdicts = {name: answer["verdicts"] for _, name, _, answer, _ in warm + timed
                       if answer}
    with spans.install(tracer):
        for requests, is_timed in ((warm, False), (timed[:len(pool)], True)):
            for _, name, *_ in requests:
                with (index.measure() if is_timed else nullcontext()), \
                        tracer.op(warmup=not is_timed):
                    report = api.check(
                        pool[name].source, f"{name}.dml", backend="fourier",
                        cache=cache, telemetry=SolverTelemetry(),
                        limits=DEFAULT_LIMITS, slicing=slicing,
                    )
                verdicts = [[r.goal.origin, r.proved, r.reason]
                            for r in report.goal_results]
                out.verify(verdicts == daemon_verdicts.get(name),
                           f"in-process verdicts of {name} differ from the daemon's")
    _finish_trace(ctx, out, index)


# ---------------------------------------------------------------------------
# compiled-run: the paper's Table 2
# ---------------------------------------------------------------------------


def compiled_run(ctx: Context) -> Outcome:
    """Compile each program and run its fully checked and its
    plan-gated unchecked build; bypasses the daemon and the store."""
    out = Outcome()
    tracer = ctx.tracer
    rng = ctx.rng("inputs")
    programs = {p.name: p for p in table2.PROGRAMS}
    cases = {p.name: p.build(rng) for p in table2.PROGRAMS}
    sources = {name: bundled_path(name).read_text() for name in programs}
    checked_builds: dict[str, Any] = {}
    index = IndexCounters(ctx.tracer is not None)

    def build_all() -> None:
        for name, source in sources.items():
            result = api.compile(source, f"{name}.dml", dialect="plain")
            checked = compile_program(result.report.program, result.report.env,
                                      set(), name)
            checked.load()
            result.module.load()
            checked_builds[name] = checked

    for _ in range(SETUP_REPEATS):
        timed_setup(out, ctx.probe, build_all)

    #: Per timed operation: program and its (compile, checked, unchecked) seconds.
    parts: list[tuple[str, tuple[float, float, float]]] = []
    order = seeded_cycle(list(programs), ctx.rng("order"))

    def op() -> float:
        name = next(order)
        program, case = programs[name], cases[name]
        checked_args, unchecked_args = case.fresh(), case.fresh()
        with index.measure(), _op(ctx):
            t0 = time.perf_counter()
            result = api.compile(sources[name], f"{name}.dml", dialect="plain")
            result.module.load()
            t1 = time.perf_counter()
            with _span(ctx, f"runtime.{name}.checked"):
                t2 = time.perf_counter()
                checked_out = checked_builds[name].call(program.entry, *checked_args)
                t3 = time.perf_counter()
            with _span(ctx, f"runtime.{name}.unchecked"):
                t4 = time.perf_counter()
                unchecked_out = result.module.call(program.entry, *unchecked_args)
                t5 = time.perf_counter()
        expected = ctx.expected[name]
        out.verify(
            case.check(checked_args, checked_out)
            and case.check(unchecked_args, unchecked_out)
            and checked_out == unchecked_out and checked_args == unchecked_args
            and len(result.report.sites) == expected["sites"]
            and len(result.plan.unchecked) == expected["eliminable"],
            f"compiled {name}: output or plan differs from the reference",
        )
        parts.append((name, (t1 - t0, t3 - t2, t5 - t4)))
        return (t1 - t0) + (t3 - t2) + (t5 - t4)

    reference = _verdict_digests(
        {f"{n}.dml": s for n, s in sources.items()}) if tracer else {}
    with spans.install(tracer) if tracer else nullcontext():
        out.ops, out.window = closed_loop(ctx.seconds, op, ctx.probe)
    out.peak_rss_mb = rss_mb(resource.RUSAGE_SELF)

    medians = _medians(parts, out.scales(ctx.probe))
    out.extra["compile_gmean_ms"] = (
        gmean([m["compile"] for m in medians.values()]) * 1000.0, "ms")
    out.extra["run_checked_gmean_ms"] = (
        gmean([m["checked"] for m in medians.values()]) * 1000.0, "ms")
    out.extra["run_unchecked_gmean_ms"] = (
        gmean([m["unchecked"] for m in medians.values()]) * 1000.0, "ms")
    out.extra["elim_speedup"] = (
        gmean([m["checked"] / m["unchecked"] for m in medians.values()]), "x")

    if tracer is not None:
        _check_traced_verdicts(ctx, out, reference)
        _finish_trace(ctx, out, index)
        totals = tracer.totals()
        out.layers["compile.check_ms"] = tracer.inclusive_ms("api.check")
        out.layers["compile.gen_lines"] = (
            totals["gen_lines"] / max(len(tracer.timed_ops), 1))
        out.layers["compile.unchecked_site_ratio"] = (
            totals["unchecked"] / totals["sites"] if totals["sites"] else 0.0)
        for name, kinds in _medians(parts, [1.0] * len(parts)).items():
            out.layers[f"runtime.{name}.checked_ms"] = kinds["checked"] * 1000.0
            out.layers[f"runtime.{name}.unchecked_ms"] = kinds["unchecked"] * 1000.0
        eliminated, kept = _count_checks(out, programs, cases, sources)
        out.layers["runtime.checks_eliminated"] = eliminated
        out.layers["runtime.checks_kept"] = kept
    return out


def _medians(parts: list[tuple[str, tuple[float, float, float]]],
             factors: list[float]) -> dict[str, dict[str, float]]:
    """Per program, the median compile, checked and unchecked seconds,
    each operation's times multiplied by its factor."""
    samples: dict[str, dict[str, list[float]]] = {}
    for (name, times), factor in zip(parts, factors):
        for kind, seconds in zip(("compile", "checked", "unchecked"), times):
            samples.setdefault(name, {}).setdefault(kind, []).append(seconds * factor)
    return {name: {kind: statistics.median(values) for kind, values in kinds.items()}
            for name, kinds in samples.items()}


def _count_checks(out: Outcome, programs: dict, cases: dict,
                  sources: dict) -> tuple[int, int]:
    """Dynamic check counts from one instrumented run per program."""
    eliminated = kept = 0
    for name, program in programs.items():
        result = api.compile(sources[name], f"{name}.dml", dialect="plain",
                             instrument=True)
        args = cases[name].fresh()
        support.COUNTERS.reset()
        answer = result.module.call(program.entry, *args)
        out.verify(cases[name].check(args, answer),
                   f"instrumented {name}: output differs from the reference")
        eliminated += support.COUNTERS.eliminated
        kept += support.COUNTERS.performed
    return eliminated, kept


#: Workloads whose work is sequential run pinned to one CPU (their
#: children inherit it): it costs them nothing, and the speed probe
#: then times the CPU the work ran on.  ``serve`` keeps both CPUs.
ONE_CPU = frozenset({"cli-cold", "corpus-cold", "corpus-warm", "compiled-run"})

WORKLOADS: dict[str, Callable[[Context], Outcome]] = {
    "cli-cold": cli_cold,
    "corpus-cold": corpus_cold,
    "corpus-warm": corpus_warm,
    "serve": serve,
    "compiled-run": compiled_run,
}
