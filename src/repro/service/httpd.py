"""The HTTP/1.1 server shell shared by the advisor daemon and the gateway.

Both servers speak HTTP through this module and keep only their own
routes and background loops.  It holds:

* one request parser and one response writer, with **keep-alive** as
  the default (HTTP/1.1 semantics): :meth:`HttpApp.handle_connection`
  loops over :func:`read_request` until the peer half-closes or asks
  for ``Connection: close``, and :func:`respond` only closes when told
  to.  Persistent connections matter here — the warm path is a
  dictionary lookup, so the TCP+handshake round trip would otherwise
  dominate (see ``benchmarks/bench_service.py``);
* :class:`HttpApp`, the routes every server answers the same way
  (``GET /healthz``, ``/metrics``, ``/debug/traces``, 404/405,
  ``POST /shutdown``) with the app's own ``POST`` routes behind them,
  and an optional streaming hook (the gateway's ``/batch``);
* :func:`serve`, the bind/announce/signals/fork-hygiene/teardown
  lifecycle, and :class:`ServerThread`, its background-thread harness;
* a small async client (gateway forwards, peer cache peeks, probes).

The parser is deliberately small: no pipelining guarantees beyond
serial request/response on one socket, no request chunked bodies, no
TLS — the service's unit of work is a model evaluation, not a socket.
A request line or ``Content-Length`` it cannot read is answered 400 and
the connection closed.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import threading
from dataclasses import dataclass
from urllib.parse import parse_qs

from ..experiments.pool import register_parent_socket, unregister_parent_socket
from ..obs import events as obs_events
from ..obs.context import TRACE_HEADER, TraceContext
from ..obs.tracer import NULL_SPAN, Tracer

__all__ = ["HttpApp", "ParsedRequest", "PayloadTooLarge", "ServerThread",
           "error_payload", "finish_chunked_response", "json_body", "read_request",
           "request_bytes", "request_json", "request_span", "respond",
           "serve", "start_chunked_response", "write_chunk"]

REASONS = {200: "OK", 400: "Bad Request", 403: "Forbidden",
           404: "Not Found", 405: "Method Not Allowed",
           413: "Payload Too Large", 500: "Internal Server Error",
           502: "Bad Gateway", 503: "Service Unavailable",
           504: "Gateway Timeout"}


class PayloadTooLarge(Exception):
    """A request body above the configured cap; carries the target path."""

    def __init__(self, target: str, limit: int) -> None:
        super().__init__(f"body exceeds {limit} bytes")
        self.target = target
        self.limit = limit


@dataclass
class ParsedRequest:
    method: str
    target: str
    headers: dict[str, str]
    body: bytes
    #: did the client ask to drop the connection after this exchange?
    close: bool
    #: why the request cannot be served (empty for a well-formed one)
    problem: str = ""


def _malformed(problem: str) -> ParsedRequest:
    return ParsedRequest("", "", {}, b"", close=True, problem=problem)


async def read_request(
    reader: asyncio.StreamReader, max_body_bytes: int
) -> ParsedRequest | None:
    """Parse one request off the stream.

    Returns ``None`` at a clean end of stream (the peer closed between
    requests), a :class:`ParsedRequest` naming its ``problem`` for an
    unparseable request line or ``Content-Length`` (its body is left
    unread, so the connection must close), and raises
    :class:`PayloadTooLarge` when the declared body exceeds the cap.
    """
    request_line = await reader.readline()
    if not request_line:
        return None
    parts = request_line.decode("latin1").split()
    if len(parts) < 2:
        return _malformed("malformed request line")
    method, target = parts[0].upper(), parts[1]
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin1").partition(":")
        headers[name.strip().lower()] = value.strip()
    declared = headers.get("content-length") or "0"
    if not (declared.isascii() and declared.isdigit()):
        return _malformed("malformed Content-Length header")
    length = int(declared)
    if length > max_body_bytes:
        # the oversized body is unread; the connection cannot be reused
        raise PayloadTooLarge(target, max_body_bytes)
    body = await reader.readexactly(length) if length else b""
    close = headers.get("connection", "").lower() == "close"
    return ParsedRequest(method, target, headers, body, close=close)


def _encode(payload: dict | str | bytes) -> tuple[bytes, str]:
    if isinstance(payload, bytes):
        return payload, "application/json"
    if isinstance(payload, str):
        return payload.encode(), "text/plain; version=0.0.4; charset=utf-8"
    return json.dumps(payload).encode(), "application/json"


async def respond(
    writer: asyncio.StreamWriter,
    status: int,
    payload: dict | str | bytes,
    close: bool = False,
) -> None:
    """Write one response; ``bytes`` payloads are relayed verbatim as
    JSON (the gateway's passthrough), ``str`` as Prometheus text."""
    data, content_type = _encode(payload)
    head = (
        f"HTTP/1.1 {status} {REASONS.get(status, 'OK')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(data)}\r\n"
        f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n"
    ).encode("latin1")
    writer.write(head + data)
    await writer.drain()


async def start_chunked_response(
    writer: asyncio.StreamWriter,
    status: int = 200,
    content_type: str = "application/x-ndjson",
) -> None:
    """Open a chunked (streaming) response; follow with
    :func:`write_chunk` calls and one :func:`finish_chunked_response`.

    Streaming responses always close the connection afterwards — a
    half-consumed stream leaves the socket unusable for a next request.
    """
    head = (
        f"HTTP/1.1 {status} {REASONS.get(status, 'OK')}\r\n"
        f"Content-Type: {content_type}\r\n"
        "Transfer-Encoding: chunked\r\n"
        "Connection: close\r\n\r\n"
    ).encode("latin1")
    writer.write(head)
    await writer.drain()


async def write_chunk(writer: asyncio.StreamWriter, data: bytes) -> None:
    """One chunk; ``drain()`` here is the batch window's backpressure."""
    if not data:
        return
    writer.write(f"{len(data):x}\r\n".encode("latin1") + data + b"\r\n")
    await writer.drain()


async def finish_chunked_response(writer: asyncio.StreamWriter) -> None:
    writer.write(b"0\r\n\r\n")
    await writer.drain()


# ----------------------------------------------------------------------
# server shell: shared routes, the connection loop, lifecycle, thread
# ----------------------------------------------------------------------

def error_payload(endpoint: str, error_type: str, message: str) -> dict:
    """The wire error envelope every server answers with."""
    return {"ok": False, "endpoint": endpoint,
            "error": {"type": error_type, "message": message}}


def json_body(body: bytes, headers: dict[str, str]) -> object:
    """A request's JSON body (``{}`` when empty); raises ``ValueError``.

    Transports that only see headers (the gateway forward, any standard
    HTTP client) propagate trace context via ``X-Repro-Trace``: it is
    adopted as the body's ``trace_context`` unless the body carries one
    (an explicit JSON context always wins).
    """
    payload = json.loads(body.decode() or "{}")
    if isinstance(payload, dict) and "trace_context" not in payload:
        header_ctx = TraceContext.from_header(headers.get(TRACE_HEADER.lower()))
        if header_ctx is not None:
            payload["trace_context"] = header_ctx.to_dict()
    return payload


def request_span(tracer: Tracer | None, name: str, **attrs):
    """A span on the request's tracer, or the shared no-op for untraced
    requests — keeps the instrumented paths free of ``if tracer`` forks."""
    return tracer.span(name, **attrs) if tracer is not None else NULL_SPAN


class HttpApp:
    """What one server adds to the shell: its routes, metrics and loops.

    A subclass sets :attr:`role` and :attr:`post_routes` and provides:

    * ``async post(route, body, headers) -> (status, payload)``;
    * ``health() -> dict`` and ``metrics_snapshot() -> dict``;
    * ``render_metrics(snapshot) -> str``, the Prometheus text;
    * ``config.max_body_bytes``, ``shutdown_event``, ``traces`` (a
      :class:`~repro.obs.traces.TraceBuffer`) and ``close()``.

    :meth:`background`, :meth:`start_fields` and :meth:`stream` are
    optional.
    """

    #: ``repro-<role> listening on ...`` and the ``<role>.start`` event
    role: str
    #: ``POST /<route>`` paths handed to ``post`` (others 404)
    post_routes: frozenset = frozenset()

    async def handle_request(
        self, method: str, target: str, body: bytes,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict | str | bytes, bool]:
        """Route one request; returns ``(status, payload, shutdown?)``.

        A ``str`` payload is served as Prometheus text
        (``/metrics?format=prometheus``), ``bytes`` verbatim as JSON,
        and dicts as JSON.  ``headers`` use lowercase names, as parsed
        by :func:`read_request`.
        """
        path, _, query_string = target.partition("?")
        path = path.rstrip("/") or "/"
        if method == "GET":
            if path == "/healthz":
                return 200, self.health(), False
            if path == "/metrics":
                fmt = (parse_qs(query_string).get("format") or ["json"])[-1]
                if fmt not in ("json", "prometheus"):
                    return 400, error_payload(
                        "metrics", "BadFormat",
                        f"unknown metrics format {fmt!r} "
                        "(expected 'json' or 'prometheus')",
                    ), False
                snapshot = self.metrics_snapshot()
                if fmt == "prometheus":
                    return 200, self.render_metrics(snapshot), False
                return 200, snapshot, False
            if path == "/debug/traces":
                query = parse_qs(query_string)
                try:
                    limit = int((query.get("limit") or ["10"])[-1])
                except ValueError:
                    return 400, error_payload(
                        "debug/traces", "BadLimit",
                        "limit must be an integer"), False
                endpoint = (query.get("endpoint") or [None])[-1]
                snapshot = self.traces.snapshot(limit=limit, endpoint=endpoint)
                snapshot["ok"] = True
                return 200, snapshot, False
            return 404, error_payload(path, "NotFound",
                                      f"no such path {path!r}"), False
        if method != "POST":
            return 405, error_payload(path, "MethodNotAllowed",
                                      f"{method} not supported"), False
        if path == "/shutdown":
            return 200, {"ok": True, "status": "shutting down"}, True
        route = path.lstrip("/")
        if route not in self.post_routes:
            return 404, error_payload(route, "NotFound",
                                      f"no such endpoint {route!r}"), False
        status, payload = await self.post(route, body, headers or {})
        return status, payload, False

    def background(self) -> list:
        """Coroutines run as tasks while serving, cancelled at teardown."""
        return []

    def start_fields(self) -> dict:
        """Extra fields of the ``<role>.start`` event."""
        return {}

    async def stream(self, request: ParsedRequest,
                     writer: asyncio.StreamWriter) -> bool:
        """Answer a streaming request itself (True) or decline (False).

        A stream always closes the connection afterwards."""
        return False

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve requests on one socket until the client leaves.

        Keep-alive by default: the loop re-reads after each response, so
        a client reusing its connection pays the TCP setup once and the
        warm path stays a dictionary lookup.  ``Connection: close``,
        oversized bodies (the unread body poisons the stream), malformed
        requests, streams and ``/shutdown`` all end the loop.
        """
        shutdown = False
        # register the accepted socket so pool workers forked while this
        # connection is open close their inherited copy — otherwise a
        # daemon death would never reset the connection and the client
        # would block instead of failing over
        conn_sock = writer.get_extra_info("socket")
        if conn_sock is not None:
            register_parent_socket(conn_sock)
        try:
            while True:
                try:
                    request = await read_request(reader,
                                                 self.config.max_body_bytes)
                except PayloadTooLarge as exc:
                    await respond(writer, 413,
                                  error_payload(exc.target, "PayloadTooLarge",
                                                str(exc)),
                                  close=True)
                    return
                if request is None:
                    return
                if request.problem:
                    await respond(writer, 400,
                                  error_payload("", "BadRequest",
                                                request.problem),
                                  close=True)
                    return
                if await self.stream(request, writer):
                    return
                status, payload, shutdown = await self.handle_request(
                    request.method, request.target, request.body,
                    request.headers,
                )
                close = shutdown or request.close
                await respond(writer, status, payload, close=close)
                if close:
                    return
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # loop teardown cancels handlers parked on an idle keep-alive
            # socket; exiting cleanly here keeps the streams machinery
            # from logging the cancellation as an error
            pass
        finally:
            if conn_sock is not None:
                unregister_parent_socket(conn_sock)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()
            if shutdown:
                self.shutdown_event.set()


async def serve(app: HttpApp, host: str, port: int, ready=None,
                announce: bool = True) -> None:
    """Serve ``app`` until ``/shutdown`` or SIGINT/SIGTERM, then close it.

    ``port=0`` binds an ephemeral port; the chosen one is announced on
    stdout as ``repro-<role> listening on http://HOST:PORT`` so wrappers
    (benchmarks, the CI smoke jobs) can parse it.  ``ready``, if given,
    is called with ``(app, host, actual_port, loop)`` once the socket is
    bound — :class:`ServerThread` uses it.
    """
    server = await asyncio.start_server(app.handle_connection, host, port)
    # forked evaluator workers must close their inherited copy of this
    # listener or the port keeps accepting (and black-holing) connections
    # after the server stops — fatal to gateway failover, which relies on
    # a dead replica refusing connections
    listeners = list(server.sockets)
    for sock in listeners:
        register_parent_socket(sock)
    actual_port = listeners[0].getsockname()[1]
    if announce:
        print(f"repro-{app.role} listening on http://{host}:{actual_port}",
              flush=True)
    obs_events.emit(f"{app.role}.start", host=host, port=actual_port,
                    **app.start_fields())
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
            loop.add_signal_handler(sig, app.shutdown_event.set)
    if ready is not None:
        ready(app, host, actual_port, loop)
    tasks = [loop.create_task(job) for job in app.background()]
    try:
        async with server:
            await app.shutdown_event.wait()
    finally:
        for sock in listeners:
            unregister_parent_socket(sock)
        for task in tasks:
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
        app.close()


class ServerThread:
    """An in-process server on a background thread (tests, benches, tours).

    A subclass names the :class:`HttpApp` it runs in :attr:`app_class`,
    built from ``config`` inside the thread's event loop.
    """

    app_class: type[HttpApp]

    def __init__(self, config, host: str = "127.0.0.1", port: int = 0) -> None:
        self.config = config
        self._host = host
        self._port = port
        self._ready = threading.Event()
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self.app: HttpApp | None = None
        self.address: tuple[str, int] | None = None

    def _on_ready(self, app, host, port, loop) -> None:
        self.app = app
        self.address = (host, port)
        self._loop = loop
        self._ready.set()

    async def _main(self) -> None:
        await serve(self.app_class(self.config), self._host, self._port,
                    ready=self._on_ready, announce=False)

    def start(self) -> tuple[str, int]:
        role = self.app_class.role
        if self._thread is not None:
            raise RuntimeError(f"{role} thread already started")
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name=f"repro-{role}",
            daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError(f"{role} thread failed to start")
        return self.address

    def stop(self, timeout: float = 30.0) -> None:
        if self._thread is None:
            return
        if self._loop is not None and self.app is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self.app.shutdown_event.set)
        self._thread.join(timeout=timeout)
        self._thread = None

    def __enter__(self) -> tuple[str, int]:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


# ----------------------------------------------------------------------
# async client side (gateway forwards, peer cache peeks, health probes)
# ----------------------------------------------------------------------

async def request_bytes(
    host: str,
    port: int,
    method: str,
    path: str,
    body: bytes = b"",
    timeout: float | None = None,
    headers: dict[str, str] | None = None,
) -> tuple[int, bytes]:
    """One ``Connection: close`` request from inside an event loop.

    Returns ``(status, body_bytes)``; raises ``OSError`` /
    ``asyncio.TimeoutError`` / ``asyncio.IncompleteReadError`` on
    connection trouble (callers fail over or degrade).  Chunked response
    bodies are de-chunked.  The stdlib has no async HTTP client, and
    running ``http.client`` in a thread per forward would serialize the
    gateway on its thread pool — hence this ~40-line one.
    """

    async def _exchange() -> tuple[int, bytes]:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            extra = "".join(
                f"{name}: {value}\r\n"
                for name, value in (headers or {}).items()
            )
            head = (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"{extra}"
                "Connection: close\r\n\r\n"
            ).encode("latin1")
            writer.write(head + body)
            await writer.drain()
            status_line = await reader.readline()
            parts = status_line.split()
            if len(parts) < 2:
                raise ConnectionError(f"malformed status line {status_line!r}")
            status = int(parts[1])
            response_headers: dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin1").partition(":")
                response_headers[name.strip().lower()] = value.strip()
            if response_headers.get("transfer-encoding", "").lower() == "chunked":
                chunks = []
                while True:
                    size_line = await reader.readline()
                    size = int(size_line.strip() or b"0", 16)
                    if size == 0:
                        await reader.readline()
                        break
                    chunks.append(await reader.readexactly(size))
                    await reader.readexactly(2)  # trailing CRLF
                return status, b"".join(chunks)
            length = response_headers.get("content-length")
            if length is not None:
                return status, await reader.readexactly(int(length))
            return status, await reader.read()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    if timeout is None:
        return await _exchange()
    return await asyncio.wait_for(_exchange(), timeout)


async def request_json(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: dict | None = None,
    timeout: float | None = None,
    headers: dict[str, str] | None = None,
) -> tuple[int, dict]:
    """:func:`request_bytes` with JSON bodies both ways."""
    body = b"" if payload is None else json.dumps(payload).encode()
    status, raw = await request_bytes(host, port, method, path, body, timeout,
                                      headers)
    return status, json.loads(raw or b"{}")

