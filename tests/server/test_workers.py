"""Process-mode serving: pre-forked workers, parity, containment.

The load-bearing claims (ISSUE 10 / DESIGN.md §9):

* **parity** — ``--executor process`` answers carry verdicts
  byte-identical to thread mode and to ``api.check`` on the same
  source; caches and slicing are verdict-preserving, so per-worker
  caches change only *how fast*, never *what*;
* **warm forks** — workers are forked after the parent's prelude,
  intern table, and cache warm-up, and run in separate processes
  (their pids are not the daemon's);
* **containment** — a worker killed mid-request or wedged past
  ``worker_timeout`` costs that one request an HTTP 500; the slot is
  respawned and the daemon keeps answering with correct verdicts.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro import programs
from repro.server.app import ServeDaemon
from repro.server.client import ServeClient, ServeError
from repro.server.sessions import CheckService, ServerConfig
from repro.server.workers import fork_available
from tests.server.test_serve import BAD, GOOD, reference_verdicts

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


@pytest.fixture(scope="module")
def process_daemon():
    service = CheckService(
        ServerConfig(cache_dir=None, executor="process", jobs=2)
    )
    instance = ServeDaemon(service, port=0).start_in_thread()
    yield instance
    instance.stop()


@pytest.fixture()
def client(process_daemon):
    with ServeClient(process_daemon.port) as instance:
        yield instance


class TestParity:
    def test_good_matches_api(self, client):
        answer = client.check(GOOD, "good.dml")
        assert answer["ok"] is True
        assert answer["verdicts"] == reference_verdicts(GOOD, "good.dml")

    def test_bad_matches_api(self, client):
        answer = client.check(BAD, "bad.dml")
        assert answer["ok"] is False
        assert answer["verdicts"] == reference_verdicts(BAD, "bad.dml")

    def test_corpus_matches_thread_mode(self, client):
        """The decisive cross-executor diff: the same programs through
        a thread-mode service yield byte-identical verdict triples."""
        names = ["dotprod", "bsearch", "reverse"]
        thread_service = CheckService(ServerConfig(cache_dir=None))
        thread_daemon = ServeDaemon(thread_service, port=0).start_in_thread()
        try:
            with ServeClient(thread_daemon.port) as thread_client:
                for name in names:
                    source = programs.load_source(name)
                    via_process = client.check(source, f"{name}.dml")
                    via_thread = thread_client.check(source, f"{name}.dml")
                    assert via_process["verdicts"] == via_thread["verdicts"], name
                    assert via_process["ok"] is via_thread["ok"]
                    assert via_process["eliminable"] == via_thread["eliminable"]
        finally:
            thread_daemon.stop()

    def test_batch_matches_individual_checks(self, client):
        names = ["dotprod", "bsearch"]
        payloads = [
            ServeClient.request_payload(
                programs.load_source(name), f"{name}.dml"
            )
            for name in names
        ]
        results = client.check_batch(payloads)
        for name, result in zip(names, results):
            assert result["verdicts"] == reference_verdicts(
                programs.load_source(name), f"{name}.dml"
            ), name

    def test_syntax_error_is_422_and_pool_survives(self, client):
        with pytest.raises(ServeError) as exc:
            client.check("fun = 3", "syntax.dml")
        assert exc.value.status == 422
        assert client.check(GOOD)["ok"] is True

    def test_admission_clamping_is_parent_side(self, process_daemon):
        """The admitted envelope reported back is the parent's clamp,
        identical to thread mode."""
        with ServeClient(process_daemon.port) as client:
            answer = client.check(GOOD, budget=60)
        assert answer["limits"]["max_steps"] == 60


class TestStats:
    def test_worker_rows_are_real_processes(self, client):
        client.check(GOOD)
        stats = client.stats()
        assert stats["executor"] == "process"
        assert stats["jobs"] == 2
        rows = stats["workers"]
        assert [row["id"] for row in rows] == ["process-0", "process-1"]
        for row in rows:
            assert row["alive"] is True
            assert row["pid"] != os.getpid()
            assert row["busy_seconds"] >= 0
        assert len({row["pid"] for row in rows}) == 2
        # Worker rows partition everything dispatched to the pool:
        # successful checks plus contained per-request errors.
        assert (sum(r["requests"] for r in rows)
                == stats["checks"] + stats["check_errors"])

    def test_latency_quantiles_present(self, client):
        client.check(GOOD)
        latency = client.stats()["latency"]
        assert latency["samples"] >= 1
        assert latency["p50_ms"] > 0
        assert latency["p95_ms"] >= latency["p50_ms"]


class TestContainment:
    """Crash/wedge recovery on a one-worker pool (deterministic: every
    request lands on the only slot)."""

    @pytest.fixture(scope="class")
    def fragile_daemon(self):
        service = CheckService(
            ServerConfig(
                cache_dir=None, executor="process", jobs=1,
                worker_timeout=60.0,
            )
        )
        instance = ServeDaemon(service, port=0).start_in_thread()
        yield instance
        instance.stop()

    @pytest.fixture()
    def fragile_client(self, fragile_daemon):
        with ServeClient(fragile_daemon.port) as instance:
            yield instance

    def worker_pid(self, client) -> int:
        (row,) = client.stats()["workers"]
        assert row["alive"] is True
        return row["pid"]

    def test_killed_worker_is_respawned(self, fragile_client):
        fragile_client.check(GOOD)  # warm; also proves the pool works
        before = fragile_client.stats()
        pid = self.worker_pid(fragile_client)
        os.kill(pid, signal.SIGKILL)
        with pytest.raises(ServeError) as exc:
            fragile_client.check(GOOD, "victim.dml")
        assert exc.value.status == 500
        assert "died mid-request" in exc.value.payload["error"]
        # The slot was respawned: fresh pid, correct answers resume.
        after = fragile_client.stats()
        assert after["respawns"] == before["respawns"] + 1
        assert self.worker_pid(fragile_client) != pid
        answer = fragile_client.check(GOOD, "after-crash.dml")
        assert answer["verdicts"] == reference_verdicts(
            GOOD, "after-crash.dml"
        )

    def test_wedged_worker_is_respawned(self):
        """A worker stopped mid-request trips ``worker_timeout`` and is
        killed and replaced; the request fails contained."""
        service = CheckService(
            ServerConfig(
                cache_dir=None, executor="process", jobs=1,
                worker_timeout=1.0,
            )
        )
        daemon = ServeDaemon(service, port=0).start_in_thread()
        try:
            with ServeClient(daemon.port) as client:
                client.check(GOOD)
                pid = self.worker_pid(client)
                os.kill(pid, signal.SIGSTOP)  # wedge: alive but not answering
                with pytest.raises(ServeError) as exc:
                    client.check(GOOD, "wedged.dml")
                assert exc.value.status == 500
                assert "worker-timeout" in exc.value.payload["error"]
                assert client.stats()["respawns"] == 1
                assert self.worker_pid(client) != pid
                assert client.check(GOOD)["ok"] is True
        finally:
            daemon.stop()
