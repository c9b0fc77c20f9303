"""Smoke test of the end-to-end benchmark: every workload, untraced and
traced, for a one-second window.  It is not part of the tier-1 suite
(about two minutes); run it with

    PYTHONPATH=src python3 -m pytest benchmarks/e2e/test_e2e_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload, tmp_path):
    out = tmp_path / "result.json"
    last = _result(_run("--workload", workload, "--seconds", "1",
                        "--out", str(out)))
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in last["metrics"].values())
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert json.loads(out.read_text())[workload]["metrics"]["error_rate"]["value"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload, tmp_path):
    last = _result(_run("--workload", workload, "--seconds", "1", "--trace", "1",
                        "--trace-dir", str(tmp_path)))
    assert {name: m["unit"] for name, m in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert last["correct"]
    assert last["metrics"]["trace.coverage"]["value"] >= 0.9
    events = json.loads((tmp_path / f"{workload}.json").read_text())["traceEvents"]
    assert events
    for event in events:
        assert event["ph"] == "X" and event["dur"] >= 0
        assert {"id", "parent", "op", "self_us"} <= set(event["args"])


def test_a_wrong_known_answer_fails_operations(tmp_path):
    expected = json.loads((HERE / "expected.json").read_text())
    expected["bcopy"]["goals"] += 1
    planted = tmp_path / "expected.json"
    planted.write_text(json.dumps(expected))
    last = _result(_run("--workload", "corpus-cold", "--seconds", "1",
                        "--expected", str(planted)))
    assert not last["correct"] and last["failed"] > 0


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run("--workload", "cli-cold", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
