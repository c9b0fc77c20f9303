"""CI smoke: the `repro serve` daemon answers like `repro check`.

Launches the real CLI daemon as a subprocess — once per executor
(``--executor thread``, then ``--executor process`` where the fork
start method exists) — and for each:

1. runs a cold/warm request pair per probe program and diffs both
   against the sequential ``api.check`` verdicts (the same triples
   ``repro check`` renders); the warm request must replay every goal
   from the declaration records the cold one stored;
2. runs one buffered ``/check-batch`` over the whole corpus and one
   *streamed* (chunked NDJSON) batch, and diffs every result;
3. exercises admission control (negative budget -> HTTP 400) and the
   telemetry endpoints (executor, latency quantiles, per-worker rows,
   zero respawns on a clean run);
4. shuts the daemon down and fails on a nonzero exit code.

Exit status is nonzero on any verdict drift or protocol failure.
"""

from __future__ import annotations

import multiprocessing
import os
import re
import signal
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, "src")

from repro import api, programs  # noqa: E402
from repro.server.client import ServeClient, ServeError  # noqa: E402

PROBES = ["dotprod", "bsearch", "reverse"]


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def reference_verdicts(name: str) -> list[list]:
    report = api.check(programs.load_source(name), f"{name}.dml")
    return [[r.goal.origin, r.proved, r.reason] for r in report.goal_results]


def launch(cache_dir: str, executor: str) -> tuple[subprocess.Popen, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--cache-dir", cache_dir,
            "--executor", executor,
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    assert proc.stdout is not None
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        if match:
            return proc, int(match.group(1))
    proc.kill()
    fail(f"{executor} daemon never reported a listening port")
    raise AssertionError  # unreachable


def smoke(executor: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        proc, port = launch(os.path.join(tmp, "serve-cache"), executor)
        client = ServeClient(port)
        try:
            health = client.healthz()
            if health.get("status") != "ok":
                fail(f"[{executor}] healthz not ok")
            if health.get("executor") != executor:
                fail(
                    f"[{executor}] healthz reports executor "
                    f"{health.get('executor')!r}"
                )

            for name in PROBES:
                expected = reference_verdicts(name)
                source = programs.load_source(name)
                started = time.perf_counter()
                cold = client.check(source, f"{name}.dml")
                cold_ms = (time.perf_counter() - started) * 1000
                started = time.perf_counter()
                warm = client.check(source, f"{name}.dml")
                warm_ms = (time.perf_counter() - started) * 1000
                for label, answer in (("cold", cold), ("warm", warm)):
                    if answer["verdicts"] != expected:
                        fail(
                            f"[{executor}] {label} /check verdict drift "
                            f"on {name}"
                        )
                if warm["goals_replayed"] != warm["goals"]:
                    fail(
                        f"[{executor}] warm /check of {name} replayed "
                        f"{warm['goals_replayed']} of {warm['goals']} goals"
                    )
                print(
                    f"ok [{executor}] {name}: cold {cold_ms:.1f} ms, "
                    f"warm {warm_ms:.1f} ms, "
                    f"{warm['goals_replayed']}/{warm['goals']} replayed"
                )

            payloads = [
                ServeClient.request_payload(
                    programs.load_source(name), f"{name}.dml"
                )
                for name in programs.available()
            ]
            for label, stream in (("batch", False), ("streamed batch", True)):
                for result in client.check_batch(payloads, stream=stream):
                    name = result["name"].removesuffix(".dml")
                    if result["verdicts"] != reference_verdicts(name):
                        fail(
                            f"[{executor}] {label} verdict drift on {name}"
                        )
                print(
                    f"ok [{executor}] {label}: {len(payloads)} programs, "
                    "no drift"
                )

            try:
                client.check("fun f x = x\n", budget=-1)
                fail(f"[{executor}] negative budget was not rejected")
            except ServeError as exc:
                if exc.status != 400:
                    fail(
                        f"[{executor}] negative budget: expected 400, "
                        f"got {exc.status}"
                    )
            print(f"ok [{executor}] admission: negative budget -> 400")

            stats = client.stats()
            if stats["executor"] != executor:
                fail(
                    f"[{executor}] stats reports executor "
                    f"{stats['executor']!r}"
                )
            if stats["checks"] < 2 * len(PROBES) + 2 * len(payloads):
                fail(
                    f"[{executor}] stats undercounts checks: "
                    f"{stats['checks']}"
                )
            if stats["respawns"] != 0:
                fail(
                    f"[{executor}] {stats['respawns']} worker respawn(s) "
                    "on a clean run"
                )
            if not stats["workers"]:
                fail(f"[{executor}] stats has no worker rows")
            if executor == "process":
                foreign = [
                    row for row in stats["workers"]
                    if row["pid"] == proc.pid
                ]
                if foreign:
                    fail("process workers share the daemon's pid")
            latency = stats["latency"]
            if not latency["p50_ms"] or latency["p95_ms"] < latency["p50_ms"]:
                fail(f"[{executor}] latency quantiles inconsistent: {latency}")
            print(
                f"ok [{executor}] stats: {stats['checks']} checks, "
                f"{len(stats['workers'])} worker(s), "
                f"p50 {latency['p50_ms']:.1f} ms / "
                f"p95 {latency['p95_ms']:.1f} ms, "
                f"{stats['cache']['hits']} cache hits"
            )
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                code = proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                fail(f"[{executor}] daemon did not exit on SIGINT")
        if code != 0:
            fail(f"[{executor}] daemon exited with {code}")
        print(f"ok [{executor}] shutdown: exit 0")


def main() -> int:
    executors = ["thread"]
    if "fork" in multiprocessing.get_all_start_methods():
        executors.append("process")
    else:
        print("fork unavailable: process executor skipped", file=sys.stderr)
    for executor in executors:
        smoke(executor)
    print(f"serve smoke passed ({', '.join(executors)})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
