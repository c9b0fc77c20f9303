"""The asyncio HTTP front end of ``repro serve``.

A deliberately small HTTP/1.1 server on raw asyncio streams — no
framework, no dependencies.  Connections are **persistent** (HTTP/1.1
keep-alive): a client can pipeline sequential requests on one socket
and pays the TCP+parse cost once, with an idle timeout reaping
connections that go quiet; ``Connection: close`` (and HTTP/1.0
without ``Connection: keep-alive``) is honored.  Endpoints:

* ``POST /check``       — one :class:`~repro.server.protocol.CheckRequest`
  in, one check report out (HTTP 422 when the program fails to
  parse/elaborate; solver trouble is fail-soft and never an error).
* ``POST /check-batch`` — ``{"programs": [request...]}``; fans the
  items out over the service's executor.  Default: one buffered
  ``{"results": [...]}`` in request order.  With ``Accept:
  application/x-ndjson`` the response **streams**: chunked transfer
  encoding, one JSON object per line as each item finishes (completion
  order, each carrying its request ``index``), so a 100-program batch
  shows first results in milliseconds instead of waiting on the
  slowest item.  Per-item failures are contained either way: a program
  that fails to parse (or whose process-pool worker crashes) yields an
  ``{"ok": false, "error": ...}`` entry, the rest of the batch is
  unaffected.
* ``GET /stats``        — daemon/cache/solver/slicing telemetry, plus
  per-worker utilization and check-latency quantiles.
* ``GET /healthz``      — liveness probe (answers without touching the
  solver stack).

The CPU-bound checking runs on the service's executor — worker
threads (``--executor thread``), or dispatcher threads fronting the
pre-forked process pool (``--executor process``,
:mod:`repro.server.workers`).  The event loop stays responsive (health
checks answer while long checks run), and request handlers crash only
their own connection, never the daemon.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Awaitable, Callable

from repro.lang.errors import DMLError
from repro.records import record
from repro.server.protocol import (
    MAX_BODY_BYTES,
    NDJSON_CONTENT_TYPE,
    PROTOCOL_VERSION,
    CheckRequest,
    ProtocolError,
    batch_from_json,
    error_response,
    stream_requested,
)
from repro.server.sessions import CheckService

#: Close keep-alive connections idle this long (seconds); the CLI's
#: ``--idle-timeout`` overrides, ``0``/``None`` disables.
DEFAULT_IDLE_TIMEOUT = 75.0

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
}


def _encode(status: int, payload: dict, close: bool) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n"
    )
    return head.encode("latin-1") + body


@record(frozen=True)
class _Request:
    """One parsed request, body fully consumed (so answering an error
    and keeping the connection alive is always framing-safe)."""

    method: str
    target: str
    version: str
    headers: dict[str, str]
    body: bytes

    @property
    def keep_alive(self) -> bool:
        token = self.headers.get("connection", "").lower()
        if "close" in token:
            return False
        if self.version == "HTTP/1.0":
            return "keep-alive" in token
        return True


@record(frozen=True)
class _BatchStream:
    """A handler's request to stream batch results instead of
    returning one buffered payload."""

    requests: list[CheckRequest]


class ServeDaemon:
    """One daemon instance: an asyncio server wrapped around a
    :class:`~repro.server.sessions.CheckService`.

    Two run modes: :meth:`run` blocks the calling thread (the CLI), and
    :meth:`start_in_thread`/:meth:`stop` host the event loop on a
    background thread (tests, benchmarks, the CI smoke script).
    """

    def __init__(
        self,
        service: CheckService,
        host: str = "127.0.0.1",
        port: int = 0,
        idle_timeout: float | None = DEFAULT_IDLE_TIMEOUT,
    ) -> None:
        self.service = service
        self.host = host
        #: Requested port; rewritten to the bound port once listening
        #: (``0`` asks the OS for a free one).
        self.port = port
        #: Seconds a keep-alive connection may sit idle between
        #: requests before the server closes it (``None``/``0`` =
        #: never).
        self.idle_timeout = idle_timeout if idle_timeout else None
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    # -- request handling --------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection's lifetime: serve requests until the client
        closes, asks to close, idles out, or breaks framing."""
        try:
            while True:
                request_line = await self._next_request_line(reader)
                if request_line is None:
                    break
                if not await self._serve_one(request_line, reader, writer):
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        except asyncio.CancelledError:
            # Daemon shutdown cancelled a parked keep-alive handler;
            # finish normally so the task doesn't surface the
            # cancellation through the streams machinery.
            pass
        except Exception as exc:  # noqa: BLE001 - daemon must survive
            try:
                writer.write(
                    _encode(
                        500,
                        error_response(f"internal error: {exc}"),
                        close=True,
                    )
                )
                await writer.drain()
            except (ConnectionError, OSError):
                pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _next_request_line(
        self, reader: asyncio.StreamReader
    ) -> bytes | None:
        """The next request line, or ``None`` when the connection is
        done (client EOF, or keep-alive idle timeout expired)."""
        try:
            if self.idle_timeout is not None:
                line = await asyncio.wait_for(
                    reader.readline(), timeout=self.idle_timeout
                )
            else:
                line = await reader.readline()
        except (asyncio.TimeoutError, TimeoutError):
            return None
        if not line.strip():
            return None
        return line

    async def _serve_one(
        self,
        request_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        """Answer one request; returns whether to keep the connection."""
        try:
            request = await self._read_request(request_line, reader)
        except ProtocolError as exc:
            # Framing can't be trusted past a malformed head (the body
            # may be unread): answer and close.
            self.service.count_rejected()
            writer.write(
                _encode(exc.status, error_response(str(exc)), close=True)
            )
            await writer.drain()
            return False

        keep = request.keep_alive
        route = _ROUTES.get(request.target)
        if route is None:
            status, payload = 404, error_response(
                f"no such endpoint: {request.target}"
            )
        elif request.method != route[0]:
            status, payload = 405, error_response(
                f"{request.target} expects {route[0]}, got {request.method}"
            )
        else:
            try:
                outcome = await route[1](self, request)
                if isinstance(outcome, _BatchStream):
                    return await self._stream_batch(writer, outcome, keep)
                status, payload = outcome
            except ProtocolError as exc:
                self.service.count_rejected()
                status, payload = exc.status, error_response(str(exc))
            except DMLError as exc:
                status, payload = 422, error_response(exc.render())
            except Exception as exc:  # noqa: BLE001 - contained per request
                # Body was fully consumed, so the connection's framing
                # is intact: answer 500 and keep serving (this is the
                # worker-crash path in process mode).
                status, payload = 500, error_response(
                    f"internal error: {exc}"
                )
        writer.write(_encode(status, payload, close=not keep))
        await writer.drain()
        return keep

    async def _read_request(
        self, request_line: bytes, reader: asyncio.StreamReader
    ) -> _Request:
        parts = request_line.decode("latin-1", "replace").split()
        if len(parts) < 2:
            raise ProtocolError("malformed request line")
        method, target = parts[0].upper(), parts[1].split("?", 1)[0]
        version = parts[2].upper() if len(parts) > 2 else "HTTP/1.0"
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            key, _, value = line.decode("latin-1", "replace").partition(":")
            headers[key.strip().lower()] = value.strip()
        length = 0
        if "content-length" in headers:
            try:
                length = int(headers["content-length"])
            except ValueError:
                raise ProtocolError("malformed Content-Length") from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise ProtocolError(
                f"body too large ({length} > {MAX_BODY_BYTES} bytes)",
                status=413,
            )
        body = await reader.readexactly(length) if length else b""
        return _Request(
            method=method,
            target=target,
            version=version,
            headers=headers,
            body=body,
        )

    @staticmethod
    def _parse_json(body: bytes) -> object:
        try:
            return json.loads(body)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}")

    def _run_batch_item(self, index: int, request: CheckRequest) -> dict:
        """One contained batch item (thread-pool side): failures —
        parse errors, worker crashes — become error entries, never
        batch failures."""
        try:
            payload = dict(self.service.check(request))
        except DMLError as exc:
            payload = error_response(exc.render())
            payload["name"] = request.name
        except Exception as exc:  # noqa: BLE001 - contained per item
            payload = error_response(f"internal error: {exc}")
            payload["name"] = request.name
        payload["index"] = index
        return payload

    # -- endpoints ---------------------------------------------------------

    async def _check(self, request: _Request) -> tuple[int, dict]:
        check = CheckRequest.from_json(self._parse_json(request.body))
        loop = asyncio.get_running_loop()
        payload = await loop.run_in_executor(
            self.service.pool, self.service.check, check
        )
        return 200, payload

    async def _check_batch(
        self, request: _Request
    ) -> tuple[int, dict] | _BatchStream:
        requests = batch_from_json(self._parse_json(request.body))
        self.service.count_batch(len(requests))
        if (
            stream_requested(request.headers.get("accept"))
            and request.version == "HTTP/1.1"
        ):
            return _BatchStream(requests)
        loop = asyncio.get_running_loop()
        results = await asyncio.gather(
            *(
                loop.run_in_executor(
                    self.service.pool, self._run_batch_item, index, entry
                )
                for index, entry in enumerate(requests)
            )
        )
        ordered = []
        for result in results:  # gather preserves request order
            result.pop("index", None)
            ordered.append(result)
        return 200, {"results": ordered}

    async def _stream_batch(
        self,
        writer: asyncio.StreamWriter,
        stream: _BatchStream,
        keep: bool,
    ) -> bool:
        """Chunked NDJSON: one line per item in completion order, each
        tagged with its request ``index``.  Chunked framing keeps the
        connection reusable afterwards."""
        head = (
            f"HTTP/1.1 200 OK\r\n"
            f"Content-Type: {NDJSON_CONTENT_TYPE}\r\n"
            f"Transfer-Encoding: chunked\r\n"
            f"Connection: {'keep-alive' if keep else 'close'}\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))
        await writer.drain()
        loop = asyncio.get_running_loop()
        tasks = [
            loop.run_in_executor(
                self.service.pool, self._run_batch_item, index, entry
            )
            for index, entry in enumerate(stream.requests)
        ]
        for task in asyncio.as_completed(tasks):
            payload = await task
            line = json.dumps(payload).encode("utf-8") + b"\n"
            writer.write(
                f"{len(line):x}\r\n".encode("latin-1") + line + b"\r\n"
            )
            await writer.drain()
        writer.write(b"0\r\n\r\n")
        await writer.drain()
        return keep

    async def _stats(self, request: _Request) -> tuple[int, dict]:
        return 200, self.service.stats_json()

    async def _healthz(self, request: _Request) -> tuple[int, dict]:
        return 200, {
            "status": "ok",
            "version": PROTOCOL_VERSION,
            "backend": self.service.config.backend,
            "executor": self.service.config.executor,
        }

    # -- lifecycle ---------------------------------------------------------

    async def _start_server(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def _serve(self) -> None:
        await self._start_server()
        assert self._server is not None
        print(f"repro serve: listening on http://{self.host}:{self.port}")
        async with self._server:
            await self._server.serve_forever()

    def run(self) -> int:
        """Serve until interrupted (the ``repro serve`` CLI path)."""
        try:
            asyncio.run(self._serve())
        except KeyboardInterrupt:
            pass
        finally:
            self.service.close()
        return 0

    def start_in_thread(self) -> "ServeDaemon":
        """Host the event loop on a daemon thread; returns once the
        socket is bound (``self.port`` then holds the real port)."""
        self._loop = asyncio.new_event_loop()

        def runner() -> None:
            assert self._loop is not None
            asyncio.set_event_loop(self._loop)
            try:
                self._loop.run_until_complete(self._start_server())
            except BaseException as exc:  # noqa: BLE001 - report to caller
                self._startup_error = exc
                self._ready.set()
                return
            self._ready.set()
            try:
                self._loop.run_forever()
            finally:
                self._loop.close()

        self._thread = threading.Thread(
            target=runner, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise RuntimeError(
                f"daemon failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    def stop(self) -> None:
        """Stop a :meth:`start_in_thread` daemon and flush its cache."""
        if self._loop is None:
            return

        async def shutdown() -> None:
            assert self._loop is not None
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
            # Let in-flight connection handlers unwind before the loop
            # dies (they only have responses left to flush).
            pending = [
                task
                for task in asyncio.all_tasks()
                if task is not asyncio.current_task()
            ]
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
            self._loop.stop()

        if not self._loop.is_closed():
            asyncio.run_coroutine_threadsafe(shutdown(), self._loop)
        if self._thread is not None:
            self._thread.join(timeout=10)
        self._loop = None
        self.service.close()


_ROUTES: dict[
    str,
    tuple[
        str,
        Callable[
            [ServeDaemon, _Request],
            Awaitable[tuple[int, dict] | _BatchStream],
        ],
    ],
] = {
    "/check": ("POST", ServeDaemon._check),
    "/check-batch": ("POST", ServeDaemon._check_batch),
    "/stats": ("GET", ServeDaemon._stats),
    "/healthz": ("GET", ServeDaemon._healthz),
}
