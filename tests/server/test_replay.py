"""The daemon replays unchanged declarations from its verdict store.

Every ``/check`` runs :func:`repro.driver.core.check_program` against
the daemon's store, under either executor:

* a repeated request replays every goal, with ``api.check``'s verdicts;
* an edit to the last declaration replays exactly the declarations
  above it;
* a budgeted request never replays a record a default request stored,
  so it answers as ``api.check`` with that budget does;
* a daemon without a store (``--no-cache``) replays nothing.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import api, programs
from repro.server.app import ServeDaemon
from repro.server.client import ServeClient
from repro.server.sessions import CheckService, ServerConfig
from repro.server.workers import fork_available
from repro.solver.budget import SolverLimits

EXECUTORS = [
    "thread",
    pytest.param("process", marks=pytest.mark.skipif(
        not fork_available(), reason="fork start method unavailable"
    )),
]

DECLS = [
    "fun f(a) = sub(a, 0)\n"
    "where f <| {n:nat | n > 0} 'a array(n) -> 'a\n",
    "fun g(a) = sub(a, 1)\n"
    "where g <| {n:nat | n > 1} 'a array(n) -> 'a\n",
    "fun h(a, i) = sub(a, i)\n"
    "where h <| {n:nat, i:nat | i < n} 'a array(n) * int(i) -> 'a\n",
]
EDITED_LAST = (
    "fun h(a, i) = sub(a, i - 1)\n"
    "where h <| {n:nat, i:nat | 0 < i /\\ i <= n} 'a array(n) * int(i) -> 'a\n"
)


def reference(source: str, name: str, limits=None) -> list[list]:
    report = api.check(source, name, limits=limits)
    return [[r.goal.origin, r.proved, r.reason] for r in report.goal_results]


def start(executor: str, cache_dir, jobs: int = 2) -> ServeDaemon:
    config = ServerConfig(
        cache_dir=None if cache_dir is None else str(cache_dir),
        executor=executor, jobs=jobs,
    )
    return ServeDaemon(CheckService(config), port=0).start_in_thread()


@pytest.fixture(params=EXECUTORS)
def client(request, tmp_path):
    daemon = start(request.param, tmp_path / "serve-cache")
    try:
        with ServeClient(daemon.port) as instance:
            yield instance
    finally:
        daemon.stop()


@pytest.fixture(params=EXECUTORS)
def storeless_client(request):
    daemon = start(request.param, None)
    try:
        with ServeClient(daemon.port) as instance:
            yield instance
    finally:
        daemon.stop()


def test_a_repeated_request_replays_every_goal(client):
    source = programs.load_source("bsearch")
    expected = reference(source, "bsearch.dml")
    cold = client.check(source, "bsearch.dml")
    warm = client.check(source, "bsearch.dml")
    assert cold["goals_replayed"] == 0
    assert warm["goals_replayed"] == warm["goals"] == len(expected) > 0
    assert cold["verdicts"] == warm["verdicts"] == expected
    assert cold["eliminable"] == warm["eliminable"]
    assert client.stats()["goals_replayed"] == warm["goals"]


def test_an_edit_replays_exactly_the_declarations_above_it(client):
    base = "".join(DECLS)
    edited = "".join(DECLS[:-1]) + EDITED_LAST
    above = api.check("".join(DECLS[:-1])).stats.goals
    client.check(base, "edit.dml")
    answer = client.check(edited, "edit.dml")
    assert 0 < above < answer["goals"]
    assert answer["goals_replayed"] == above
    assert answer["verdicts"] == reference(edited, "edit.dml")
    assert answer["ok"] is True


def test_a_budgeted_request_after_a_default_one_answers_as_before(client):
    source = programs.load_source("bsearch")
    client.check(source, "bsearch.dml")
    answer = client.check(source, "bsearch.dml", budget=3)
    assert answer["goals_replayed"] == 0
    assert answer["verdicts"] == reference(
        source, "bsearch.dml", SolverLimits(max_steps=3)
    )
    assert answer["proved"] == 0
    assert answer["budget_exhausted"] == answer["goals"] > 0


def test_a_daemon_without_a_store_replays_nothing(storeless_client):
    source = programs.load_source("bsearch")
    expected = reference(source, "bsearch.dml")
    for _ in range(2):
        answer = storeless_client.check(source, "bsearch.dml")
        assert answer["goals_replayed"] == 0
        assert answer["verdicts"] == expected
    assert storeless_client.stats()["goals_replayed"] == 0


def test_concurrent_requests_count_every_replay(tmp_path):
    """More worker threads than cores, switching often, share the store
    and the replay counter: every answer is right, and ``/stats`` sums
    exactly the replays the answers report."""
    names = ["dotprod", "bsearch", "reverse"] * 4
    expected = {
        name: reference(programs.load_source(name), f"{name}.dml")
        for name in set(names)
    }
    local = threading.local()
    clients: list[ServeClient] = []

    def hit(name: str) -> tuple[str, dict]:
        if not hasattr(local, "client"):
            local.client = ServeClient(daemon.port)
            clients.append(local.client)
        return name, local.client.check(
            programs.load_source(name), f"{name}.dml"
        )

    daemon = start("thread", tmp_path / "serve-cache", jobs=4)
    interval = sys.getswitchinterval()
    try:
        # Stored first, so every concurrent dotprod request replays.
        hit("dotprod")
        sys.setswitchinterval(1e-5)
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(hit, name) for name in names]
            answers = [future.result(timeout=120) for future in futures]
        sys.setswitchinterval(interval)
        stats = clients[0].stats()
    finally:
        sys.setswitchinterval(interval)
        for client in clients:
            client.close()
        daemon.stop()
    for name, answer in answers:
        assert answer["verdicts"] == expected[name], name
    assert stats["checks"] == len(names) + 1
    replayed = sum(answer["goals_replayed"] for _, answer in answers)
    assert stats["goals_replayed"] == replayed > 0
