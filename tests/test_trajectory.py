"""``benchmarks/trajectory.jsonl``: the claimed result of each
performance change, one line per (change, workload, metric, seed).

Each line holds the ``compare.py`` reading of alternating parent/change
pairs of ``benchmarks/e2e/run.py``: both sides' medians with quartiles,
the pairs the change won and the verdict.  Append a line per claim; the
EXPERIMENTS.md section of the change holds the rest of its tables.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LINES = (ROOT / "benchmarks" / "trajectory.jsonl").read_text().splitlines()
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
VERDICTS = {"gain", "within bound", "regression", "unresolved"}


@pytest.mark.parametrize("line", LINES, ids=[f"line{i + 1}" for i in range(len(LINES))])
def test_line_is_a_paired_comparison_of_a_declared_metric(line):
    row = json.loads(line)
    assert set(row) == {
        "pr", "workload", "metric", "seed", "pairs", "parent", "change",
        "diff_pct", "wins", "verdict",
    }
    assert row["workload"] in {w["name"] for w in BENCHMARK["workloads"]}
    assert row["metric"] in {
        m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    }
    for side in ("parent", "change"):
        q1, median, q3 = (row[side][k] for k in ("q1", "median", "q3"))
        assert q1 <= median <= q3
    diff = (row["change"]["median"] / row["parent"]["median"] - 1) * 100
    assert abs(diff - row["diff_pct"]) < 0.06
    assert 0 <= row["wins"] <= row["pairs"] >= 2
    assert row["verdict"] in VERDICTS


def test_lines_are_in_change_order():
    prs = [json.loads(line)["pr"] for line in LINES]
    assert prs == sorted(prs)
