"""The repository's end-to-end benchmark (see README.md beside this file).

Run from the repository root, one workload per process::

    python3 benchmarks/e2e/run.py --workload corpus-cold --seed 0 --seconds 15
    python3 benchmarks/e2e/run.py --workload serve --trace 1

It prints every metric by name and unit, then, as its last line, one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` —
the ``end_to_end`` metrics of ``BENCHMARK.json``, or with ``--trace 1``
its ``per_layer`` metrics.  ``--out FILE`` also merges the full result
(every metric, including workload-specific and per-layer ones) into
FILE under the workload's name, for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
from pathlib import Path

import harness

WORKLOAD_NAMES = ("cli-cold", "corpus-cold", "corpus-warm", "serve", "compiled-run")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="selects and orders the inputs (default 0; "
                             "1 is the holdout seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--trace-dir", type=Path, default=harness.WORK / "trace",
                        help="where a traced run writes its Chrome trace")
    parser.add_argument("--out", type=Path, default=None,
                        help="merge the full result into this JSON file")
    parser.add_argument("--expected", type=Path, default=harness.EXPECTED,
                        help="known answers for the bundled programs")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    # A terminated run still unwinds, so it stops the daemon it started
    # and removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not harness.source_tree_present():
        print(f"error: no package source under {harness.SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    import spans
    import workloads

    bench = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    work = harness.fresh_dir(harness.WORK / f"{args.workload}-{os.getpid()}")
    tracer = spans.Tracer() if args.trace else None
    cpus = os.sched_getaffinity(0)
    if args.workload in workloads.ONE_CPU:
        cpus = {min(cpus)}
        os.sched_setaffinity(0, cpus)
    ctx = harness.Context(
        workload=args.workload, seed=args.seed, seconds=seconds, work=work,
        expected=harness.load_expected(args.expected),
        probe=harness.SpeedProbe(cpus), tracer=tracer,
    )
    ctx.probe.sample()
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = harness.end_to_end(outcome, ctx.probe)
    raw = harness.end_to_end(outcome, None)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    layers = {name: (value, units.get(name, _layer_unit(name)))
              for name, value in sorted(outcome.layers.items())}
    _print_report(args, seconds, ctx.probe, outcome, metrics, raw, layers)
    if tracer is not None:
        args.trace_dir.mkdir(parents=True, exist_ok=True)
        trace_file = args.trace_dir / f"{args.workload}.json"
        trace_file.write_text(json.dumps(tracer.chrome_trace()))
        print(f"trace: {trace_file}")
    if args.out is not None:
        _merge_result(args, seconds, ctx.probe, outcome, metrics, raw, layers)

    chosen = layers if args.trace else metrics
    missing = [m["name"] for m in declared if m["name"] not in chosen]
    if missing:
        print(f"error: run did not produce {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": chosen[m["name"]][0], "unit": chosen[m["name"]][1]}
            for m in declared
        },
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if "ratio" in name or name.endswith(("_frac", "coverage", "coverage_mean")):
        return "ratio"
    return "count"


def _print_report(args: argparse.Namespace, seconds: float,
                  probe: harness.SpeedProbe, outcome: harness.Outcome,
                  metrics: dict, raw: dict, layers: dict) -> None:
    print(f"workload {args.workload}  seed {args.seed}  window {seconds:g} s  "
          f"trace {args.trace}  nproc {os.cpu_count()}  cpus {probe.cpus}")
    print(f"operations: {outcome.attempted} verified, {outcome.failed} failed")
    for error in outcome.errors:
        print(f"  FAILED: {error}")
    kernel = [ms for _, _, ms in probe.bursts]
    print(f"speed: {len(kernel)} kernel bursts, {min(kernel):.3f}-{max(kernel):.3f} "
          f"ms a call (reference {probe.REFERENCE_MS} ms)")
    print(f"end-to-end: {'at reference speed':>49} {'raw':>14}")
    for name, (value, unit) in metrics.items():
        shown = f"{raw[name][0]:>14.4f}" if name in raw else ""
        print(f"  {name:<34} {value:>14.4f} {unit:<6} {shown}")
    if layers:
        print("per-layer:")
        for name, (value, unit) in layers.items():
            print(f"  {name:<34} {value:>14.4f} {unit}")


def _merge_result(args: argparse.Namespace, seconds: float,
                  probe: harness.SpeedProbe, outcome: harness.Outcome,
                  metrics: dict, raw: dict, layers: dict) -> None:
    results = json.loads(args.out.read_text()) if args.out.exists() else {}
    results[args.workload] = {
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "speed": {"bursts": len(probe.bursts), "reference_ms": probe.REFERENCE_MS,
                  "kernel_ms": [ms for _, _, ms in probe.bursts]},
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "raw": {name: {"value": v, "unit": u} for name, (v, u) in raw.items()},
        "layers": {name: {"value": v, "unit": u} for name, (v, u) in layers.items()},
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
