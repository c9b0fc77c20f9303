"""Paired comparison of two sides' benchmark results.

    python3 benchmarks/e2e/compare.py PARENT1 CHANGE1 PARENT2 CHANGE2 ...

Each file is a ``run.py --out`` result (one or more workloads).  The
files alternate parent and change runs, two or more per side, in the
order they were made, so pair ``i`` is ``(PARENTi, CHANGEi)``.  For
every (metric, workload) present on both sides it prints each side's
median and quartiles, the fraction of pairs the change wins (ties
count for neither) and a verdict:

* ``gain`` — the change wins at least 9/10 of the pairs and the
  medians differ by more than the parent's own quartile spread;
* ``regression`` — the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved`` — the parent's spread is wider than the bound, so the
  runs cannot show the metric is unchanged (unless every change run
  beats every parent run);
* ``within bound`` — otherwise.

Bounds come from ``BENCHMARK.json`` (``end_to_end``) and from
``WORKLOAD_METRICS`` in ``harness.py``; other metrics are listed
without a verdict.  The exit code is 1 if any metric regressed.  The
same command measures tracing overhead: give untraced runs as the
parent side and traced runs as the change side.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import harness


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float | None) -> tuple[float, str]:
    """The change's win fraction and the verdict for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    win_frac = wins / len(parent)
    if bound is None:
        return win_frac, ""
    q1, p_med, q3 = _quartiles(parent)
    c_med = statistics.median(change)
    if bound == 0.0:
        return win_frac, "regression" if sign * (c_med - p_med) > 0 else "within bound"
    worse = sign * (c_med - p_med) / abs(p_med)
    spread = (q3 - q1) / abs(p_med)
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if win_frac >= 0.9 and sign * (c_med - p_med) < 0 and abs(c_med - p_med) > q3 - q1:
        return win_frac, "gain"
    if spread > bound and not all_better:
        return win_frac, "unresolved"
    if worse > bound:
        return win_frac, "regression"
    return win_frac, "within bound"


def _bounds() -> dict[str, tuple[str, float]]:
    bench = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    bounds.update(harness.WORKLOAD_METRICS)
    return bounds


def compare(files: list[Path]) -> int:
    runs = [json.loads(path.read_text()) for path in files]
    parents, changes = runs[0::2], runs[1::2]
    bounds = _bounds()
    regressed = False
    print(f"{'workload':<13} {'metric':<28} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'diff':>8} {'wins':>5}  verdict")
    workloads = sorted(set.intersection(*(set(run) for run in runs)))
    for workload in workloads:
        for section in ("metrics", "layers"):
            names = set.intersection(*(set(run[workload][section]) for run in runs))
            for name in sorted(names, key=lambda n: (n not in bounds, n)):
                p = [run[workload][section][name]["value"] for run in parents]
                c = [run[workload][section][name]["value"] for run in changes]
                unit = runs[0][workload][section][name]["unit"]
                better, bound = bounds.get(name, ("lower", None))
                win_frac, judged = verdict(p, c, better, bound)
                regressed |= judged == "regression"
                pq, cq = _quartiles(p), _quartiles(c)
                diff = (cq[1] - pq[1]) / abs(pq[1]) if pq[1] else 0.0
                print(f"{workload:<13} {name:<28} "
                      f"{_fmt(pq):>30} {_fmt(cq):>30} {diff:>+8.1%} "
                      f"{win_frac:>5.0%}  {judged or '-'}"
                      f"{'' if not judged else f' (bound {bound:.0%})'} [{unit}]")
    return 1 if regressed else 0


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) < 4 or len(args) % 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        print("error: give two or more result files per side, alternating "
              "parent and change", file=sys.stderr)
        return 2
    return compare([Path(a) for a in args])


if __name__ == "__main__":
    sys.exit(main())
