"""The ``repro fuzz`` loop and the ``--corpus-scale`` emitter.

:func:`fuzz` drives seed → generate → differentially execute →
(on mismatch) shrink → write repro, sharing one solver cache across
all iterations so a 500-program run stays fast.  Iteration ``i`` of
seed ``s`` derives its own :class:`random.Random` from the string
``"{s}:{i}"`` (string seeding is stable across processes and Python
versions), so any finding is reproducible from ``(seed, iteration)``
alone and iterations are independent of each other.

:func:`emit_corpus` renders generated programs to ``*.dml`` files
without running the oracle — the ``--corpus-scale`` mode that blows
the 16-program bundled corpus up by 100–1000× to stress the driver,
verdict store, slicing, and caches (``repro check-corpus --dir``
consumes the result; CI checks jobs=1 vs jobs=4 verdict byte-parity
on it).
"""

from __future__ import annotations

import random
import time
from dataclasses import field
from pathlib import Path
from typing import Callable, Sequence

from repro.compile.dialects.base import Dialect
from repro.fuzz import shrink as shrink_mod
from repro.fuzz.gen import GenConfig, ProgramSpec, generate, render
from repro.fuzz.oracle import (
    KINDS,
    DiffResult,
    resolve_dialects,
    run_differential,
)
from repro.records import record
from repro.solver.portfolio import SolverCache


@record
class Finding:
    """One mismatching program, before and after shrinking."""

    iteration: int
    seed: int
    kind: str  # worst mismatch kind
    source: str
    result: DiffResult
    shrunk_source: str | None = None
    shrunk_result: DiffResult | None = None
    shrink_attempts: int = 0

    @property
    def final_source(self) -> str:
        return self.shrunk_source or self.source

    @property
    def final_lines(self) -> int:
        return len(self.final_source.rstrip("\n").split("\n"))

    def render(self) -> str:
        result = self.shrunk_result or self.result
        header = (
            f"finding: {self.kind} (seed {self.seed}, iteration "
            f"{self.iteration}, {self.final_lines} line(s)"
            + (f", shrunk in {self.shrink_attempts} attempt(s))"
               if self.shrunk_source else ", unshrunk)")
        )
        return "\n".join([
            header,
            "-" * 64,
            self.final_source.rstrip("\n"),
            "-" * 64,
            result.render(),
        ])


@record
class FuzzReport:
    """Aggregate outcome of one fuzzing run."""

    seed: int
    iterations: int
    dialects: list[str]
    findings: list[Finding] = field(default_factory=list)
    programs: int = 0
    sites: int = 0
    eliminable: int = 0
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.findings

    def render(self) -> str:
        by_kind = {k: sum(1 for f in self.findings if f.kind == k)
                   for k in KINDS}
        counts = ", ".join(f"{n} {k}" for k, n in by_kind.items() if n)
        lines = [
            f"fuzz: seed {self.seed}, {self.programs} program(s), "
            f"dialects {', '.join(self.dialects)}",
            f"sites: {self.sites} total, {self.eliminable} eliminable "
            f"({self.eliminable / self.sites:.0%})" if self.sites
            else "sites: none",
            f"findings: {len(self.findings)}"
            + (f" ({counts})" if counts else " (clean)"),
            f"elapsed: {self.elapsed:.1f} s",
        ]
        for finding in self.findings:
            lines.append("")
            lines.append(finding.render())
        return "\n".join(lines)


def iteration_rng(seed: int, iteration: int) -> random.Random:
    """The deterministic per-iteration generator stream."""
    return random.Random(f"{seed}:{iteration}")


def fuzz(
    seed: int = 0,
    iterations: int = 200,
    *,
    dialects: Sequence[str | Dialect] | None = None,
    config: GenConfig = GenConfig(),
    shrink: bool = True,
    max_shrink_attempts: int = 250,
    backend: str = "fourier",
    out: str | Path | None = None,
    progress: Callable[[int, DiffResult], None] | None = None,
) -> FuzzReport:
    """Run the differential fuzzing loop.

    On a mismatch, the shrinker minimizes the spec while the *worst*
    mismatch kind reproduces, and — when ``out`` is given — the
    minimized program and its oracle report land in ``out/`` as
    ``finding_NNNN.dml`` / ``finding_NNNN.txt``.
    """
    resolved = resolve_dialects(dialects)
    labels = [label for label, _ in resolved]
    cache = SolverCache(maxsize=1 << 16)
    report = FuzzReport(seed=seed, iterations=iterations, dialects=labels)
    out_dir = Path(out) if out is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()

    def oracle(spec: ProgramSpec, name: str) -> tuple[DiffResult, str]:
        rendered = render(spec)
        result = run_differential(
            rendered.source, rendered.truths, name=name,
            dialects=resolved, backend=backend, cache=cache,
        )
        return result, rendered.source

    for i in range(iterations):
        spec = generate(iteration_rng(seed, i), config)
        result, source = oracle(spec, f"fuzz-{seed}-{i}")
        report.programs += 1
        if result.report is not None:
            report.sites += len(result.report.sites)
            report.eliminable += len(result.report.eliminable_sites())
        if progress is not None:
            progress(i, result)
        if result.ok:
            continue

        finding = Finding(
            iteration=i, seed=seed, kind=result.worst or "behaviour",
            source=source, result=result,
        )
        if shrink:
            target = finding.kind

            def still_failing(candidate: ProgramSpec) -> bool:
                outcome, _ = oracle(candidate, f"shrink-{seed}-{i}")
                return target in outcome.kinds

            shrunk, attempts = shrink_mod.shrink(
                spec, still_failing, max_attempts=max_shrink_attempts
            )
            finding.shrink_attempts = attempts
            if shrunk != spec:
                shrunk_result, shrunk_source = oracle(
                    shrunk, f"shrunk-{seed}-{i}"
                )
                finding.shrunk_source = shrunk_source
                finding.shrunk_result = shrunk_result
        report.findings.append(finding)

        if out_dir is not None:
            stem = f"finding_{i:04d}"
            (out_dir / f"{stem}.dml").write_text(finding.final_source)
            (out_dir / f"{stem}.txt").write_text(finding.render() + "\n")

    report.elapsed = time.perf_counter() - started
    return report


def emit_corpus(
    out: str | Path,
    count: int,
    *,
    seed: int = 0,
    config: GenConfig = GenConfig(),
) -> list[Path]:
    """Write ``count`` generated programs to ``out`` (no oracle runs).

    File names carry the seed and index (``fuzz_{seed}_{i:05d}.dml``),
    so a corpus is reproducible and mergeable with others generated
    from different seeds.
    """
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths: list[Path] = []
    for i in range(count):
        rendered = render(generate(iteration_rng(seed, i), config))
        path = out_dir / f"fuzz_{seed}_{i:05d}.dml"
        path.write_text(rendered.source)
        paths.append(path)
    return paths
