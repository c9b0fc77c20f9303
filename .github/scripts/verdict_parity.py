"""CI smoke: cold and warm corpus runs produce identical verdicts.

The driver's persisted cache and the interned IR both promise to be
behaviour-invisible: whatever caching, hash-consing, or parallel
scheduling happens, the per-goal verdicts must be byte-identical
between a cold run (empty cache) and a warm replay, at any worker
count.  This script is the cheap end-to-end check of that promise.

``--slice-parity`` checks the goal-preprocessing layer's promise
instead: corpus verdicts with relevancy slicing / subsumption /
shared-prefix Fourier enabled (the default) are byte-identical to a
run with the layer off (``slice_goals=False``, the ``--no-slice``
CLI flag), sequentially and in parallel.

``--fuzz-corpus`` scales the same promise up: a generated corpus
(``repro fuzz --corpus-scale``, ~10x the bundled one, with failing
goals in the mix by construction) driven through ``check-corpus
--dir`` must produce byte-identical verdicts at jobs=1 and at jobs=4
against a store, and a warm jobs=4 rerun must replay every goal the
worker processes persisted, with the same verdicts.

``--serve-executor-parity`` checks the daemon's executor promise: a
``repro serve`` daemon under ``--executor thread`` and one under
``--executor process`` (pre-forked warm workers), each with its own
verdict store, answer ``/check``, buffered ``/check-batch``, and
streamed NDJSON ``/check-batch`` with verdicts byte-identical to
sequential ``api.check`` over the whole bundled corpus.  Each daemon
gets a cold ``/check`` pass, then a warm one that must replay every
goal from the declaration records the cold pass stored.
"""

from __future__ import annotations

import sys
import tempfile

from repro import driver


def verdicts(report):
    return [(row.program, row.verdicts) for row in report.rows]


def slice_parity() -> int:
    sliced = driver.check_corpus(jobs=1, cache_dir=None)
    plain = driver.check_corpus(jobs=1, cache_dir=None, slice_goals=False)
    sliced_par = driver.check_corpus(jobs=4, cache_dir=None)

    if not sliced.all_ok:
        print("sliced corpus run failed", file=sys.stderr)
        return 1
    if verdicts(plain) != verdicts(sliced):
        print("--no-slice verdicts diverged from sliced", file=sys.stderr)
        return 1
    if verdicts(sliced_par) != verdicts(sliced):
        print("parallel sliced verdicts diverged", file=sys.stderr)
        return 1
    if sliced.sliced_queries == 0 or sliced.atoms_after >= sliced.atoms_before:
        print("slicing layer did not engage", file=sys.stderr)
        return 1
    print(
        f"slice parity ok: {sliced.goals} goals, atoms "
        f"{sliced.atoms_before} -> {sliced.atoms_after}, "
        f"{sliced.subsumption_hits} subsumption hit(s), "
        f"{sliced.prefix_reuses} prefix reuse(s), verdicts identical "
        f"with --no-slice"
    )
    return 0


def fuzz_corpus_parity() -> int:
    from repro.fuzz import emit_corpus

    with tempfile.TemporaryDirectory(prefix="repro-fuzz-corpus") as tmp:
        corpus = f"{tmp}/corpus"
        paths = emit_corpus(corpus, 160, seed=0)
        seq = driver.check_corpus(jobs=1, cache_dir=None, source_dir=corpus)
        par = driver.check_corpus(
            jobs=4, cache_dir=f"{tmp}/cache", clear=True, source_dir=corpus
        )
        warm = driver.check_corpus(
            jobs=4, cache_dir=f"{tmp}/cache", source_dir=corpus
        )

    if len(seq.rows) != len(paths):
        print(
            f"driver checked {len(seq.rows)} of {len(paths)} generated "
            "programs",
            file=sys.stderr,
        )
        return 1
    if verdicts(par) != verdicts(seq):
        print("jobs=4 verdicts diverged from jobs=1 on the generated "
              "corpus", file=sys.stderr)
        return 1
    if verdicts(warm) != verdicts(seq):
        print("warm jobs=4 verdicts diverged on the generated corpus",
              file=sys.stderr)
        return 1
    if warm.goals_replayed != warm.goals:
        print(
            f"warm jobs=4 run replayed {warm.goals_replayed} of "
            f"{warm.goals} goals the workers persisted",
            file=sys.stderr,
        )
        return 1
    failing = sum(1 for row in seq.rows if not row.ok)
    if failing == 0:
        print(
            "generated corpus exercised no failing goals — the "
            "generator's non-eliminable sites are gone",
            file=sys.stderr,
        )
        return 1
    print(
        f"fuzz-corpus parity ok: {len(seq.rows)} generated programs, "
        f"{seq.goals} goals ({failing} program(s) with unproved sites "
        "by construction), verdicts identical at jobs=1 / jobs=4 / "
        "warm jobs=4, every goal replayed warm"
    )
    return 0


def serve_executor_parity() -> int:
    from repro import api, programs
    from repro.server.client import ServeClient
    from repro.server.workers import fork_available

    names = programs.available()
    reference = {}
    for name in names:
        report = api.check(programs.load_source(name), f"{name}.dml")
        reference[name] = [
            [r.goal.origin, r.proved, r.reason] for r in report.goal_results
        ]
    payloads = [
        ServeClient.request_payload(programs.load_source(name), f"{name}.dml")
        for name in names
    ]

    executors = ["thread"]
    if fork_available():
        executors.append("process")
    else:
        print("fork unavailable: process executor skipped", file=sys.stderr)

    for executor in executors:
        with tempfile.TemporaryDirectory(prefix="repro-serve-parity") as tmp:
            failure = _serve_parity_one(
                executor, tmp, names, reference, payloads
            )
        if failure:
            print(failure, file=sys.stderr)
            return 1

    print(
        f"serve executor parity ok: {len(names)} programs x "
        f"{{{', '.join(executors)}}}, cold and warm /check + buffered + "
        "streamed batches all match api.check, the warm pass replayed "
        "every goal"
    )
    return 0


def _serve_parity_one(
    executor: str, cache_dir: str, names, reference, payloads
) -> str | None:
    """One daemon against a fresh store: the first failure, if any."""
    from repro import programs
    from repro.server.app import ServeDaemon
    from repro.server.client import ServeClient
    from repro.server.sessions import CheckService, ServerConfig

    service = CheckService(
        ServerConfig(cache_dir=cache_dir, executor=executor, jobs=2)
    )
    daemon = ServeDaemon(service, port=0).start_in_thread()
    try:
        with ServeClient(daemon.port) as client:
            for label in ("cold", "warm"):
                for name in names:
                    answer = client.check(
                        programs.load_source(name), f"{name}.dml"
                    )
                    if answer["verdicts"] != reference[name]:
                        return (
                            f"{executor} {label} /check verdict drift "
                            f"on {name}"
                        )
                    if label == "warm" and (
                        answer["goals_replayed"] != answer["goals"]
                    ):
                        return (
                            f"{executor} warm /check of {name} replayed "
                            f"{answer['goals_replayed']} of "
                            f"{answer['goals']} goals"
                        )
            for label, stream in (("buffered", False), ("streamed", True)):
                results = client.check_batch(payloads, stream=stream)
                for name, result in zip(names, results):
                    if result["verdicts"] != reference[name]:
                        return (
                            f"{executor} {label} /check-batch verdict "
                            f"drift on {name}"
                        )
            stats = client.stats()
    finally:
        daemon.stop()
    if stats["executor"] != executor:
        return (
            f"stats reports executor {stats['executor']!r}, "
            f"expected {executor!r}"
        )
    if stats["respawns"] != 0:
        return (
            f"{executor} daemon respawned {stats['respawns']} "
            "worker(s) during a clean corpus run"
        )
    return None


def main() -> int:
    if "--slice-parity" in sys.argv[1:]:
        return slice_parity()
    if "--fuzz-corpus" in sys.argv[1:]:
        return fuzz_corpus_parity()
    if "--serve-executor-parity" in sys.argv[1:]:
        return serve_executor_parity()
    with tempfile.TemporaryDirectory(prefix="repro-parity") as tmp:
        cold = driver.check_corpus(jobs=1, cache_dir=tmp, clear=True)
        warm = driver.check_corpus(jobs=1, cache_dir=tmp)
        cold_par = driver.check_corpus(jobs=4, cache_dir=None)

    if not cold.all_ok:
        print("cold corpus run failed", file=sys.stderr)
        return 1
    if verdicts(warm) != verdicts(cold):
        print("warm verdicts diverged from cold", file=sys.stderr)
        return 1
    if verdicts(cold_par) != verdicts(cold):
        print("parallel verdicts diverged from sequential", file=sys.stderr)
        return 1
    if warm.hit_rate < 0.90:
        print(f"warm cache hit rate {warm.hit_rate:.2f} < 0.90", file=sys.stderr)
        return 1
    print(
        f"parity ok: {cold.goals} goals, warm hit rate {warm.hit_rate:.0%}, "
        f"jobs 1 == jobs 4"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
