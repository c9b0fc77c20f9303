"""The warm checking daemon: protocol, parity, concurrency, admission.

The load-bearing claims (ISSUE 6 / DESIGN.md §9):

* **parity** — a daemon ``/check`` answer carries verdicts
  byte-identical to ``api.check`` (and hence ``repro check``) on the
  same source, warm or cold, sequential or under concurrent load;
* **isolation** — requests never leak state into each other (each one
  gets a fresh prelude fork), and a request that degrades fail-soft
  leaves the daemon serving correct answers;
* **admission control** — client-requested budgets are clamped to the
  server's caps, so a pathological goal exhausts *its own* envelope
  and nothing else.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import api, programs
from repro.server.app import ServeDaemon
from repro.server.client import ServeClient, ServeError
from repro.server.protocol import CheckRequest, ProtocolError, admit_limits
from repro.server.sessions import CheckService, ServerConfig
from repro.solver.budget import DEFAULT_LIMITS, SolverLimits
from tests.test_failsoft import ADVERSARIAL

GOOD = (
    "fun f(a) = sub(a, 0) "
    "where f <| {n:nat | n > 0} 'a array(n) -> 'a\n"
)
BAD = "fun f(a, i) = sub(a, i)\n"


def reference_verdicts(source: str, name: str = "<request>") -> list[list]:
    report = api.check(source, name)
    return [[r.goal.origin, r.proved, r.reason] for r in report.goal_results]


# ---------------------------------------------------------------------------
# Protocol layer (no daemon needed)
# ---------------------------------------------------------------------------


class TestCheckRequest:
    def test_minimal(self):
        request = CheckRequest.from_json({"source": GOOD})
        assert request.source == GOOD
        assert request.backend is None
        assert request.slice_goals is True

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            CheckRequest.from_json([GOOD])

    def test_rejects_missing_source(self):
        with pytest.raises(ProtocolError, match="source"):
            CheckRequest.from_json({"name": "x"})

    def test_rejects_unknown_fields(self):
        with pytest.raises(ProtocolError, match="sauce"):
            CheckRequest.from_json({"source": GOOD, "sauce": 1})

    def test_rejects_negative_budget(self):
        with pytest.raises(ProtocolError, match="budget"):
            CheckRequest.from_json({"source": GOOD, "budget": -5})

    def test_rejects_negative_timeout(self):
        with pytest.raises(ProtocolError, match="goal_timeout"):
            CheckRequest.from_json({"source": GOOD, "goal_timeout": -1})

    def test_rejects_unknown_backend(self):
        with pytest.raises(ProtocolError, match="backend"):
            CheckRequest.from_json({"source": GOOD, "backend": "nope"})

    def test_rejects_boolean_budget(self):
        with pytest.raises(ProtocolError, match="budget"):
            CheckRequest.from_json({"source": GOOD, "budget": True})


class TestAdmission:
    CAPS = SolverLimits(max_steps=1000, goal_timeout=2.0)

    def admitted(self, **fields) -> SolverLimits:
        return admit_limits(
            CheckRequest.from_json({"source": GOOD, **fields}), self.CAPS
        )

    def test_default_request_gets_process_defaults_clamped(self):
        limits = self.admitted()
        assert limits.max_steps == 1000  # min(default 2M, cap 1000)
        assert limits.goal_timeout == 2.0

    def test_modest_request_passes_through(self):
        limits = self.admitted(budget=60, goal_timeout=0.5)
        assert limits.max_steps == 60
        assert limits.goal_timeout == 0.5

    def test_unlimited_request_is_clamped_to_the_cap(self):
        limits = self.admitted(budget=0, goal_timeout=0)
        assert limits.max_steps == 1000
        assert limits.goal_timeout == 2.0

    def test_uncapped_server_grants_unlimited(self):
        request = CheckRequest.from_json({"source": GOOD, "budget": 0})
        limits = admit_limits(request, SolverLimits.unlimited())
        assert limits.max_steps is None
        assert limits.goal_timeout is None

    def test_no_request_uncapped_server_keeps_defaults(self):
        request = CheckRequest.from_json({"source": GOOD})
        limits = admit_limits(request, SolverLimits.unlimited())
        assert limits.max_steps == DEFAULT_LIMITS.max_steps


# ---------------------------------------------------------------------------
# A live daemon (module-scoped: the whole point is warm reuse)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def daemon():
    service = CheckService(ServerConfig(cache_dir=None))
    instance = ServeDaemon(service, port=0).start_in_thread()
    yield instance
    instance.stop()


@pytest.fixture()
def client(daemon):
    with ServeClient(daemon.port) as instance:
        yield instance


class TestEndpoints:
    def test_healthz(self, client):
        answer = client.healthz()
        assert answer["status"] == "ok"
        assert answer["backend"] == "fourier"

    def test_check_good_matches_api(self, client):
        answer = client.check(GOOD, "good.dml")
        assert answer["ok"] is True
        assert answer["verdicts"] == reference_verdicts(GOOD, "good.dml")
        assert answer["eliminable"] and answer["sites"] == 1
        assert answer["limits"]["max_steps"] == DEFAULT_LIMITS.max_steps
        # Per-dialect summary: every registered dialect reports how many
        # of the eliminable sites its gate lets through (never more).
        assert set(answer["dialects"]) >= {"plain", "packed", "numpy"}
        for entry in answer["dialects"].values():
            assert entry["sites"] == answer["sites"]
            assert 0 <= entry["eliminable"] <= len(answer["eliminable"])
        assert answer["dialects"]["plain"]["available"] is True
        assert (answer["dialects"]["plain"]["eliminable"]
                == len(answer["eliminable"]))

    def test_check_bad_matches_api(self, client):
        answer = client.check(BAD, "bad.dml")
        assert answer["ok"] is False
        assert answer["verdicts"] == reference_verdicts(BAD, "bad.dml")
        assert answer["failed"] > 0

    def test_warm_repeat_is_byte_identical(self, client):
        first = client.check(GOOD, "warm.dml")
        second = client.check(GOOD, "warm.dml")
        assert first["verdicts"] == second["verdicts"]
        assert first["ok"] is second["ok"] is True

    def test_check_batch_matches_individual_checks(self, client):
        names = ["dotprod", "bsearch"]
        payloads = [
            ServeClient.request_payload(
                programs.load_source(name), f"{name}.dml"
            )
            for name in names
        ]
        results = client.check_batch(payloads)
        assert [r["name"] for r in results] == [f"{n}.dml" for n in names]
        for name, result in zip(names, results):
            assert result["ok"] is True
            assert result["verdicts"] == reference_verdicts(
                programs.load_source(name), f"{name}.dml"
            )

    def test_batch_contains_per_item_failures(self, client):
        results = client.check_batch(
            [
                ServeClient.request_payload(GOOD, "good.dml"),
                ServeClient.request_payload("fun = 3", "syntax.dml"),
            ]
        )
        assert results[0]["ok"] is True
        assert results[1]["ok"] is False
        assert "error" in results[1]
        assert results[1]["name"] == "syntax.dml"

    def test_stats_counts_requests(self, client):
        before = client.stats()
        client.check(GOOD)
        after = client.stats()
        assert after["checks"] == before["checks"] + 1
        assert after["solver"]["queries"] >= before["solver"]["queries"]
        assert after["uptime_seconds"] > 0
        assert after["slicing"]["enabled"] is True

    def test_stats_counts_batch_items(self, client):
        before = client.stats()
        client.check_batch(
            [
                ServeClient.request_payload(GOOD, "a.dml"),
                ServeClient.request_payload(GOOD, "b.dml"),
            ]
        )
        after = client.stats()
        assert after["batches"] == before["batches"] + 1
        # The per-item count, not just the batch count: a 2-item batch
        # advances batch_items by exactly 2.
        assert after["batch_items"] == before["batch_items"] + 2

    def test_stats_reports_executor_latency_and_workers(self, client):
        client.check(GOOD)
        stats = client.stats()
        assert stats["executor"] == "thread"
        assert stats["respawns"] == 0
        latency = stats["latency"]
        assert latency["samples"] >= 1
        assert latency["samples"] <= latency["window"]
        assert latency["p50_ms"] > 0
        assert latency["p95_ms"] >= latency["p50_ms"]
        assert stats["workers"]
        for row in stats["workers"]:
            assert row["id"].startswith("repro-serve")
            assert row["alive"] is True
            assert row["respawns"] == 0
            assert row["busy_seconds"] >= 0
        # Thread rows partition the daemon's checks exactly.
        assert sum(r["requests"] for r in stats["workers"]) == stats["checks"]

    def test_cacheless_daemon_reports_no_store(self, client):
        assert client.stats()["store"] is None

    def test_no_slice_request_verdicts_identical(self, client):
        sliced = client.check(GOOD, "s.dml")
        plain = client.check(GOOD, "s.dml", slice_goals=False)
        assert sliced["verdicts"] == plain["verdicts"]


class TestErrors:
    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServeError) as exc:
            client._request("GET", "/nope")
        assert exc.value.status == 404

    def test_wrong_method_is_405(self, client):
        with pytest.raises(ServeError) as exc:
            client._request("GET", "/check")
        assert exc.value.status == 405

    def test_malformed_json_is_400(self, client, daemon):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=30)
        try:
            conn.request("POST", "/check", body=b"{not json")
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert "JSON" in payload["error"]

    def test_negative_budget_is_400(self, client):
        with pytest.raises(ServeError) as exc:
            client.check(GOOD, budget=-1)
        assert exc.value.status == 400

    def test_syntax_error_is_422_and_daemon_survives(self, client):
        with pytest.raises(ServeError) as exc:
            client.check("fun = 3", "syntax.dml")
        assert exc.value.status == 422
        assert "error" in exc.value.payload
        # The daemon is unharmed: next request answers normally.
        assert client.check(GOOD)["ok"] is True


class TestConcurrency:
    #: Distinct corpus programs checked in parallel; few enough to
    #: keep the test quick, enough to actually interleave.
    PROGRAMS = ["dotprod", "bsearch", "reverse", "bcopy", "listaccess"]

    def test_parallel_checks_match_sequential_api(self, daemon):
        expected = {
            name: reference_verdicts(
                programs.load_source(name), f"{name}.dml"
            )
            for name in self.PROGRAMS
        }
        # One client (one persistent connection) per worker thread:
        # connections are kept alive across requests, so sharing one
        # client between threads is not supported.
        local = threading.local()
        clients: list[ServeClient] = []

        def hit(name: str) -> tuple[str, list]:
            if not hasattr(local, "client"):
                local.client = ServeClient(daemon.port)
                clients.append(local.client)
            answer = local.client.check(
                programs.load_source(name), f"{name}.dml"
            )
            return name, answer["verdicts"]

        try:
            with ThreadPoolExecutor(max_workers=len(self.PROGRAMS)) as pool:
                outcomes = list(pool.map(hit, self.PROGRAMS * 2))
        finally:
            for client in clients:
                client.close()
        for name, verdicts in outcomes:
            assert verdicts == expected[name], name


class TestAdmissionControl:
    @pytest.fixture(scope="class")
    def capped_daemon(self):
        service = CheckService(
            ServerConfig(cache_dir=None, caps=SolverLimits(max_steps=60))
        )
        instance = ServeDaemon(service, port=0).start_in_thread()
        yield instance
        instance.stop()

    @pytest.fixture()
    def capped_client(self, capped_daemon):
        with ServeClient(capped_daemon.port) as instance:
            yield instance

    def test_over_budget_request_degrades_fail_soft(self, capped_client):
        # The client asks for *no* cap; the server clamps to 60 steps,
        # under which the adversarial program exhausts its budget.
        answer = capped_client.check(ADVERSARIAL, "adversarial.dml", budget=0)
        assert answer["limits"]["max_steps"] == 60
        assert answer["ok"] is False
        assert answer["budget_exhausted"] > 0
        assert answer["eliminable"] == []  # checks kept
        # Goal kept, not crashed: every failure is a recorded verdict.
        assert all(
            not proved and "budget exhausted" in reason
            for _, proved, reason in answer["verdicts"]
            if not proved
        )

    def test_daemon_serves_on_after_degradation(self, capped_client):
        capped_client.check(ADVERSARIAL, budget=0)
        follow_up = capped_client.check(GOOD, "after.dml")
        assert follow_up["ok"] is True
        assert follow_up["verdicts"] == reference_verdicts(GOOD, "after.dml")
        stats = capped_client.stats()
        assert stats["caps"]["max_steps"] == 60
        assert stats["solver"]["budget_exhausted"] > 0


class TestPersistence:
    def test_warm_state_survives_a_restart(self, tmp_path):
        cache_dir = str(tmp_path / "serve-cache")
        config = ServerConfig(cache_dir=cache_dir)
        first = ServeDaemon(CheckService(config), port=0).start_in_thread()
        try:
            with ServeClient(first.port) as client:
                answer = client.check(GOOD, "persist.dml")
            assert answer["ok"] is True
        finally:
            first.stop()  # close() flushes the store

        second = ServeDaemon(CheckService(config), port=0).start_in_thread()
        try:
            with ServeClient(second.port) as client:
                stats = client.stats()
                assert stats["cache"]["preloaded"] > 0
                assert stats["store"]["backend"] == "sqlite"
                assert stats["store"]["solver_entries"] > 0
                again = client.check(GOOD, "persist.dml")
            assert again["verdicts"] == answer["verdicts"]
        finally:
            second.stop()
