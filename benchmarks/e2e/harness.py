"""Shared pieces of the end-to-end benchmark: locations, frozen inputs,
the speed probe, the closed-loop driver, the outcome record and the
metric formulas."""

from __future__ import annotations

import bisect
import itertools
import json
import math
import os
import random
import re
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
INPUTS = HERE / "inputs"
#: Scratch space for stores, staged corpora and traces (gitignored).
WORK = HERE / ".work"
EXPECTED = HERE / "expected.json"

#: How many times each run repeats its set-up; ``setup_s`` is the median.
SETUP_REPEATS = 5

#: End-to-end metrics only some workloads report (so they cannot be
#: ``end_to_end`` metrics of ``BENCHMARK.json``, which every workload
#: must report): name -> (better, regression bound as a share of the
#: parent's median).  ``compare.py`` judges them with these bounds.
WORKLOAD_METRICS: dict[str, tuple[str, float]] = {
    "error_rate": ("lower", 0.0),
    "goals_per_s": ("higher", 0.25),
    "serve_p95_ms": ("lower", 0.25),
    "compile_gmean_ms": ("lower", 0.09),
    "run_checked_gmean_ms": ("lower", 0.09),
    "run_unchecked_gmean_ms": ("lower", 0.09),
    "elim_speedup": ("higher", 0.09),
}


def source_tree_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the package from ``src/``."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


# ---------------------------------------------------------------------------
# Frozen inputs and known answers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoolProgram:
    name: str
    source: str
    #: By-construction answers from the generator's ``SiteTruth``.
    sites: int
    eliminable: int


def load_pool() -> dict[str, PoolProgram]:
    gen = INPUTS / "gen"
    truths = json.loads((gen / "truths.json").read_text())["programs"]
    return {
        name: PoolProgram(name, (gen / f"{name}.dml").read_text(),
                          truth["sites"], truth["eliminable"])
        for name, truth in sorted(truths.items())
    }


def load_expected(path: Path = EXPECTED) -> dict[str, dict[str, int]]:
    """Pinned goal/proved/site/eliminable counts of the bundled corpus."""
    return json.loads(Path(path).read_text())


def bundled_path(name: str) -> Path:
    return SRC / "repro" / "programs" / f"{name}.dml"


_GOALS = re.compile(r"^proof goals:\s+(\d+) \((\d+) proved", re.M)
_SITES = re.compile(r"^check sites:\s+(\d+) \((\d+) eliminable", re.M)


def parse_summary(text: str) -> dict[str, int] | None:
    """The counts in a ``repro check`` summary, or ``None``."""
    goals, sites = _GOALS.search(text), _SITES.search(text)
    if goals is None or sites is None:
        return None
    return {
        "goals": int(goals[1]), "proved": int(goals[2]),
        "sites": int(sites[1]), "eliminable": int(sites[2]),
    }


def seeded_cycle(items: list[str], rng: random.Random) -> Iterator[str]:
    """Endless passes over ``items``, each in a fresh seeded order."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


# ---------------------------------------------------------------------------
# The box's speed
# ---------------------------------------------------------------------------


def _speed_kernel() -> int:
    """Fixed interpreter work that shares no code with the checker:
    tuple and dict churn, string conversion and a sort."""
    table: dict[tuple[int, int], int] = {}
    total = 0
    for i in range(6000):
        key = (i % 61, i % 7)
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    return total + sorted(table.values())[-1]


class SpeedProbe:
    """How fast this box runs around each operation.

    A shared 2-vCPU VM changes speed within seconds, by up to 1.5x and
    more, and each vCPU on its own, as other tenants load the host; CPU
    time grows with wall time, so no clock sees past it.  The workloads
    time a fixed kernel in a short burst on each of their CPUs before
    the first and after every operation and set-up (``serve``: between
    two-second rounds of requests).  An operation's time is then
    reported at the reference speed: multiplied by ``REFERENCE_MS`` over
    the mean kernel time of the bursts just before and just after it.
    Because the bursts bracket the operation on the CPUs it ran on,
    this follows the box's speed from one operation to the next; the
    raw times stay in the result file.  Linux only (CPU affinity).
    """

    #: One kernel call at the reference speed: CPython 3.11 on a
    #: 2-vCPU x86-64 VM at its quietest.
    REFERENCE_MS = 1.7
    #: Fewest kernel calls per burst (about 10 ms at the reference speed).
    BURST = 6
    #: A burst also lasts at least this share of the work it follows:
    #: a longer operation passes through more of the box's speed
    #: changes, so its factor needs a longer average.
    SHARE = 0.05

    def __init__(self, cpus: set[int]) -> None:
        #: The CPUs the workload runs on.
        self.cpus = sorted(cpus)
        #: (start, end, mean kernel ms) of every burst, in time order.
        self.bursts: list[tuple[float, float, float]] = []

    def sample(self, after: float = 0.0) -> None:
        """One burst on each CPU in turn, after ``after`` seconds of work:
        at least ``BURST`` kernel calls and ``SHARE * after`` seconds."""
        allowed = os.sched_getaffinity(0)
        started = time.perf_counter()
        calls = []
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                until = time.perf_counter() + self.SHARE * after / len(self.cpus)
                for n in itertools.count():
                    if n >= self.BURST and time.perf_counter() >= until:
                        break
                    t = time.perf_counter()
                    _speed_kernel()
                    calls.append((time.perf_counter() - t) * 1000.0)
        finally:
            os.sched_setaffinity(0, allowed)
        self.bursts.append((started, time.perf_counter(), statistics.fmean(calls)))

    @property
    def seconds(self) -> float:
        """Wall seconds spent sampling."""
        return sum(end - start for start, end, _ in self.bursts)

    def scale(self, start: float, end: float) -> float:
        """The factor that puts a time measured over ``[start, end]``
        at the reference speed."""
        ends = [b[1] for b in self.bursts]
        before = bisect.bisect_right(ends, start)
        near = self.bursts[max(before - 1, 0):before]
        near += [b for b in self.bursts[before:] if b[0] >= end][:1]
        kernel = statistics.fmean(b[2] for b in near or self.bursts)
        return self.REFERENCE_MS / kernel


# ---------------------------------------------------------------------------
# One run's record
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run measured and verified."""

    #: (start, end) of each set-up repetition.
    setup: list[tuple[float, float]] = field(default_factory=list)
    #: (start, end, timed seconds) of each timed operation; the timed
    #: seconds leave out the benchmark's own work inside the operation
    #: (copying inputs, checking answers).
    ops: list[tuple[float, float, float]] = field(default_factory=list)
    #: Wall seconds of the measured window, speed sampling excluded.
    window: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Untimed operations run before the window (set-up ones included).
    warmup: int = 0
    peak_rss_mb: float = 0.0
    #: Workload-specific end-to-end metrics: name -> (value, unit),
    #: already at the reference speed.
    extra: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Per-layer metrics of a traced run: name -> value.
    layers: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def verify(self, ok: bool, what: str) -> bool:
        """Count one verified answer; a wrong one fails it."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(what)
        return ok

    def scales(self, probe: SpeedProbe) -> list[float]:
        """Each timed operation's reference-speed factor."""
        return [probe.scale(start, end) for start, end, _ in self.ops]


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    #: Per-run scratch directory (removed when the run ends).
    work: Path
    expected: dict[str, dict[str, int]]
    probe: SpeedProbe
    #: The traced run's recorder, or ``None`` for an untraced run.
    tracer: Any = None

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.workload}:{purpose}:{self.seed}")


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def timed_setup(out: Outcome, probe: SpeedProbe, step: Callable[[], Any]) -> Any:
    """Run one set-up repetition, record its span, then sample speed."""
    started = time.perf_counter()
    result = step()
    ended = time.perf_counter()
    out.setup.append((started, ended))
    probe.sample(after=ended - started)
    return result


def closed_loop(seconds: float, step: Callable[[], float],
                probe: SpeedProbe) -> tuple[list[tuple[float, float, float]], float]:
    """Run ``step`` back to back (at least once) until ``seconds`` have
    passed, sampling speed after each; returns each step's span and
    timed seconds, and the window length without the sampling."""
    ops = []
    sampled = probe.seconds
    started = time.perf_counter()
    deadline = started + seconds
    while True:
        op_started = time.perf_counter()
        timed = step()
        op_ended = time.perf_counter()
        ops.append((op_started, op_ended, timed))
        probe.sample(after=op_ended - op_started)
        if time.perf_counter() >= deadline:
            break
    return ops, time.perf_counter() - started - (probe.seconds - sampled)


def rss_mb(who: int) -> float:
    """Peak resident set size of ``RUSAGE_SELF`` or ``RUSAGE_CHILDREN``
    (Linux reports kilobytes)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Statistics and the metric set
# ---------------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def gmean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def end_to_end(outcome: Outcome,
               probe: SpeedProbe | None) -> dict[str, tuple[float, str]]:
    """The metrics every workload reports (``end_to_end`` in
    ``BENCHMARK.json``), at the reference speed — or raw without a
    probe — and, with a probe, the workload's own."""
    if probe is None:
        factors = [1.0] * len(outcome.ops)
        setup = [end - start for start, end in outcome.setup]
    else:
        factors = outcome.scales(probe)
        setup = [(end - start) * probe.scale(start, end)
                 for start, end in outcome.setup]
    latencies_ms = [timed * 1000.0 * f for (_, _, timed), f in zip(outcome.ops, factors)]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_ms": (statistics.median(latencies_ms), "ms"),
        "op_p90_ms": (percentile(latencies_ms, 0.90), "ms"),
        "ops_per_s": (len(latencies_ms) / outcome.window / statistics.fmean(factors),
                      "1/s"),
        "peak_rss_mb": (outcome.peak_rss_mb, "MB"),
    }
    if probe is not None:
        metrics.update({
            "error_rate": (outcome.failed / max(outcome.attempted, 1), "ratio"),
            "timed_ops": (float(len(latencies_ms)), "count"),
            "warmup_ops": (float(outcome.warmup), "count"),
        })
        metrics.update(outcome.extra)
    return metrics
