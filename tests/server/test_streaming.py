"""Streaming ``/check-batch``: chunked NDJSON per-item results.

Claims under test: every batch item arrives exactly once, tagged with
its request ``index``; the verdicts are byte-identical to buffered
batches and to ``api.check``; per-item failures are contained lines,
not stream failures; the chunked framing leaves the connection
reusable; and a client that can't speak HTTP/1.1 quietly gets the
buffered response instead.
"""

from __future__ import annotations

import json

import pytest

from repro import programs
from repro.server.app import ServeDaemon
from repro.server.client import ServeClient
from repro.server.sessions import CheckService, ServerConfig
from repro.server.workers import fork_available
from tests.server.test_serve import GOOD, reference_verdicts
from tests.server.test_keepalive import connect, read_response, request_bytes

NAMES = ["dotprod", "bsearch", "reverse"]


def corpus_payloads() -> list[dict]:
    return [
        ServeClient.request_payload(programs.load_source(name), f"{name}.dml")
        for name in NAMES
    ]


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


class TestStreaming:
    def test_every_item_arrives_exactly_once_with_its_index(self, client):
        seen = [result["index"] for result in client.iter_batch(
            corpus_payloads()
        )]
        assert sorted(seen) == [0, 1, 2]

    def test_streamed_verdicts_match_buffered_and_api(self, client):
        payloads = corpus_payloads()
        streamed = client.check_batch(payloads, stream=True)
        buffered = client.check_batch(payloads)
        for name, via_stream, via_buffer in zip(NAMES, streamed, buffered):
            reference = reference_verdicts(
                programs.load_source(name), f"{name}.dml"
            )
            assert via_stream["verdicts"] == reference, name
            assert via_buffer["verdicts"] == reference, name

    def test_per_item_failures_are_contained_lines(self, client):
        results = client.check_batch(
            [
                ServeClient.request_payload(GOOD, "good.dml"),
                ServeClient.request_payload("fun = 3", "syntax.dml"),
                ServeClient.request_payload(GOOD, "also-good.dml"),
            ],
            stream=True,
        )
        assert results[0]["ok"] is True
        assert results[1]["ok"] is False
        assert "error" in results[1]
        assert results[1]["name"] == "syntax.dml"
        assert results[2]["ok"] is True

    def test_connection_survives_a_stream(self, client):
        """Chunked framing is self-terminating: the same kept-alive
        connection serves the next request."""
        client.check_batch(corpus_payloads(), stream=True)
        assert client._conn is not None  # still the same connection
        conn = client._conn
        assert client.check(GOOD)["ok"] is True
        assert client._conn is conn

    def test_chunked_framing_on_the_wire(self, daemon):
        """Raw socket: the response is chunked NDJSON, one complete
        JSON object per line, terminated by a zero-length chunk."""
        body = json.dumps({"programs": corpus_payloads()}).encode()
        sock, fp = connect(daemon)
        try:
            sock.sendall(
                request_bytes(
                    "/check-batch",
                    method="POST",
                    body=body,
                    headers={"Accept": "application/x-ndjson"},
                )
            )
            status_line = fp.readline()
            assert b"200" in status_line
            headers = {}
            while True:
                line = fp.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                key, _, value = line.decode().partition(":")
                headers[key.strip().lower()] = value.strip()
            assert headers["content-type"] == "application/x-ndjson"
            assert headers["transfer-encoding"] == "chunked"
            assert "content-length" not in headers
            indices = []
            while True:
                size = int(fp.readline().strip(), 16)
                if size == 0:
                    assert fp.readline() in (b"\r\n", b"\n")
                    break
                chunk = fp.read(size)
                assert fp.read(2) == b"\r\n"
                indices.append(json.loads(chunk)["index"])
            assert sorted(indices) == [0, 1, 2]
        finally:
            sock.close()

    def test_http10_client_gets_buffered_results(self, daemon):
        """Chunked transfer encoding doesn't exist in HTTP/1.0: the
        Accept header is ignored and the buffered shape comes back."""
        body = json.dumps(
            {"programs": [ServeClient.request_payload(GOOD, "g.dml")]}
        ).encode()
        sock, fp = connect(daemon)
        try:
            sock.sendall(
                request_bytes(
                    "/check-batch",
                    method="POST",
                    version="HTTP/1.0",
                    body=body,
                    headers={"Accept": "application/x-ndjson"},
                )
            )
            status, headers, payload = read_response(fp)
            assert status == 200
            assert headers["content-type"] == "application/json"
            results = json.loads(payload)["results"]
            assert len(results) == 1 and results[0]["ok"] is True
        finally:
            sock.close()

    def test_abandoned_stream_drops_the_connection(self, client):
        """Walking away mid-stream leaves unread chunks on the socket;
        the client must reconnect rather than reuse it."""
        iterator = client.iter_batch(corpus_payloads())
        next(iterator)
        iterator.close()  # abandon with results still in flight
        assert client._conn is None
        assert client.check(GOOD)["ok"] is True  # transparent reconnect


@pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)
class TestProcessModeStreaming:
    def test_streamed_batch_matches_api_under_process_pool(self):
        service = CheckService(
            ServerConfig(cache_dir=None, executor="process", jobs=2)
        )
        daemon = ServeDaemon(service, port=0).start_in_thread()
        try:
            with ServeClient(daemon.port) as client:
                results = client.check_batch(corpus_payloads(), stream=True)
            for name, result in zip(NAMES, results):
                assert result["verdicts"] == reference_verdicts(
                    programs.load_source(name), f"{name}.dml"
                ), name
        finally:
            daemon.stop()
