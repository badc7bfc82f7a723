"""The HTTP/1.1 server shell shared by the advisor daemon and the gateway.

Both servers speak HTTP through this module and keep only their own
routes and background loops.  It holds:

* one request parser and one response writer, with **keep-alive** as
  the default (HTTP/1.1 semantics): :meth:`HttpApp.handle_connection`
  loops over :func:`read_request` until the peer half-closes or asks
  for ``Connection: close``, and :func:`respond` only closes when told
  to.  Persistent connections matter here — the warm path is a
  dictionary lookup, so the TCP+handshake round trip would otherwise
  dominate (``perfbench`` ``warm_gateway`` times that path);
* :class:`HttpApp`, the routes every server answers the same way
  (``GET /healthz``, ``/metrics``, ``/debug/traces``, 404/405,
  ``POST /shutdown``) with the app's own ``POST`` routes behind them,
  and an optional streaming hook (the gateway's ``/batch``);
* :class:`RequestScope`, the one place a ``POST`` is observed: timed,
  traced, and finished exactly once whatever the outcome;
* :func:`serve`, the bind/announce/signals/fork-hygiene/teardown
  lifecycle, and :class:`ServerThread`, its background-thread harness;
* a small async client: :class:`KeptAlive`, a server's idle keep-alive
  connections (the gateway's forwards and health probes).

The parser is deliberately small: no pipelining guarantees beyond
serial request/response on one socket, no request chunked bodies, no
TLS — the service's unit of work is a model evaluation, not a socket.
A request line or ``Content-Length`` it cannot read, or two
``Content-Length`` headers that differ, is answered 400, a request
``Transfer-Encoding`` 501, a head over the limits both sides share
(:data:`MAX_HEAD_LINE_BYTES`, :data:`MAX_HEADER_FIELDS`) 431, and the
connection closed.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import signal
import threading
import time
from dataclasses import dataclass
from urllib.parse import parse_qs

from ..experiments.pool import register_parent_socket, unregister_parent_socket
from ..obs import events as obs_events
from ..obs.context import TRACE_HEADER, TraceContext
from ..obs.traces import TraceBuffer
from ..obs.tracer import NULL_SPAN, Tracer
from .protocol import MAX_BODY_BYTES, RequestError

__all__ = ["CONNECTION_ERRORS", "HttpApp", "KeptAlive", "MAX_BODY_BYTES",
           "MAX_HEADER_FIELDS", "MAX_HEAD_LINE_BYTES", "ParsedRequest",
           "PayloadTooLarge", "RequestScope", "ServerThread",
           "error_payload", "finish_chunked_response", "json_body",
           "read_request", "request_span", "respond", "serve",
           "start_chunked_response", "write_chunk"]

#: the longest head line either side reads (the stream buffer limit of
#: every socket this module opens; asyncio's default)
MAX_HEAD_LINE_BYTES = 2**16
#: the most header fields either side reads in one head
MAX_HEADER_FIELDS = 100

REASONS = {200: "OK", 400: "Bad Request", 403: "Forbidden",
           404: "Not Found", 405: "Method Not Allowed",
           413: "Payload Too Large", 431: "Request Header Fields Too Large",
           500: "Internal Server Error",
           501: "Not Implemented", 502: "Bad Gateway",
           503: "Service Unavailable", 504: "Gateway Timeout"}


class PayloadTooLarge(Exception):
    """A request body above the configured cap; carries the target path."""

    def __init__(self, target: str, limit: int, length: int) -> None:
        super().__init__(f"body exceeds {limit} bytes")
        self.target = target
        self.limit = limit
        #: the declared (unread) body length
        self.length = length


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
    #: the status that answers the problem
    status: int = 400


def _malformed(problem: str, status: int = 400) -> ParsedRequest:
    return ParsedRequest("", "", {}, b"", close=True, problem=problem,
                         status=status)


async def _head_line(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.readline()
    except ValueError:  # readline's form of asyncio.LimitOverrunError
        raise ValueError(
            f"a head line exceeds {MAX_HEAD_LINE_BYTES} bytes") from None


async def _read_fields(reader: asyncio.StreamReader) -> list[tuple[str, str]]:
    """The header fields of one head, up to its blank line, as
    ``(lower-cased name, value)`` pairs; a head over the limits raises
    ``ValueError``."""
    fields: list[tuple[str, str]] = []
    while (line := await _head_line(reader)) not in (b"\r\n", b"\n", b""):
        if len(fields) == MAX_HEADER_FIELDS:
            raise ValueError(f"more than {MAX_HEADER_FIELDS} header fields")
        name, _, value = line.decode("latin1").partition(":")
        fields.append((name.strip().lower(), value.strip()))
    return fields


async def read_request(
    reader: asyncio.StreamReader, max_body_bytes: int
) -> ParsedRequest | None:
    """Parse one request off the stream.

    Returns ``None`` at a clean end of stream (the peer closed between
    requests), a :class:`ParsedRequest` naming its ``problem`` and
    ``status`` for an unparseable request line, a malformed
    ``Content-Length`` or two that differ (400), a request
    ``Transfer-Encoding``, which neither server decodes (501), or a head
    over its limits (431): its body is left unread, so the connection
    must close.  Raises :class:`PayloadTooLarge` when the declared body
    exceeds the cap.
    """
    try:
        request_line = await _head_line(reader)
        if not request_line:
            return None
        parts = request_line.decode("latin1").split()
        if len(parts) < 2:
            return _malformed("malformed request line")
        fields = await _read_fields(reader)
    except ValueError as exc:  # the head overran a limit
        return _malformed(str(exc), status=431)
    method, target = parts[0].upper(), parts[1]
    headers: dict[str, str] = {}
    for name, value in fields:
        if name == "content-length" and headers.get(name, value) != value:
            return _malformed("conflicting Content-Length headers")
        headers[name] = value
    if "transfer-encoding" in headers:
        # a chunked body read as empty would leave its chunks on the
        # stream to be parsed as a second request
        return _malformed("Transfer-Encoding is not supported; send the "
                          "body with a Content-Length", status=501)
    declared = headers.get("content-length") or "0"
    if not (declared.isascii() and declared.isdigit()):
        return _malformed("malformed Content-Length header")
    length = int(declared)
    if length > max_body_bytes:
        # the oversized body is unread; the connection cannot be reused
        raise PayloadTooLarge(target, max_body_bytes, length)
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
        header_ctx = TraceContext.from_header(
            headers.get(TRACE_HEADER.lower()))
        if header_ctx is not None:
            payload["trace_context"] = header_ctx.to_dict()
    return payload


def request_span(tracer: Tracer | None, name: str, **attrs):
    """A span on the request's tracer, or the shared no-op for untraced
    requests — keeps the instrumented paths free of ``if tracer`` forks."""
    return tracer.span(name, **attrs) if tracer is not None else NULL_SPAN


class RequestScope:
    """The observation of one ``POST``, opened and finished exactly once
    by the shell (:meth:`HttpApp._scoped_post`).  The app labels it —
    ``endpoint``, ``key``, :meth:`mark`, ``tree`` — and wraps the work
    it wants traced in :meth:`traced`."""

    def __init__(self, endpoint: str, traces: TraceBuffer,
                 root_name: str) -> None:
        self.started = time.perf_counter()
        self.endpoint = endpoint  # a /delta takes its base's endpoint
        self.key: str | None = None
        self.ctx: TraceContext | None = None  # this hop's trace context
        self.tracer: Tracer | None = None  # set for a traced request
        self.tree: dict | None = None  # what /debug/traces records
        self.outcome: str | None = None  # None: from the HTTP status
        self.fields: dict = {}  # extra fields of the terminal event
        self.status, self.seconds = 500, 0.0  # set at finish
        self._traces, self._root_name = traces, root_name
        self._token: int | None = None

    @property
    def trace_id(self) -> str | None:
        return self.ctx.trace_id if self.ctx is not None else None

    def mark(self, outcome: str, **fields) -> None:
        """Label the outcome (``ok``, ``error``, ``rejected``, ...)."""
        self.outcome, self.fields = outcome, fields

    @contextlib.contextmanager
    def traced(self, request: dict, **root_attrs):
        """Join the distributed trace for the work inside the block.

        The caller's ``request["trace_context"]`` is adopted as a child
        (same trace, fresh span id); without one a context is minted
        when anyone would see it (the ``trace`` flag, or an installed
        event log).  This hop's context is written back into
        ``request``, so what the app sends downstream (a worker task, a
        forwarded body) parents its spans here.  A traced request also
        gets its own tracer (never installed ambiently: one loop
        interleaves many requests), an in-flight ``/debug/traces``
        entry, and the root span, open for the block.
        """
        incoming = TraceContext.from_dict(request.get("trace_context"))
        ctx = incoming.child() if incoming is not None else None
        if ctx is None and (request.get("trace")
                            or obs_events.get_log() is not None):
            ctx = TraceContext.new()
        root = NULL_SPAN
        if ctx is not None:
            self.ctx = ctx
            request["trace_context"] = ctx.to_dict()
            if request.get("trace"):
                self.tracer = Tracer()
                self._token = self._traces.start(ctx.trace_id, self.endpoint)
                root = self.tracer.span(
                    self._root_name, endpoint=self.endpoint, **root_attrs,
                    trace_id=ctx.trace_id, span_id=ctx.span_id,
                    parent_span_id=incoming.span_id if incoming else None,
                )
        with root:
            yield

    def finish(self, status: int | None) -> None:
        """Stop the clock and record the trace entry; ``None`` (a
        cancelled request) only drops the in-flight marker."""
        if status is None:
            if self._token is not None:
                self._traces.discard(self._token)
            return
        self.status = status
        self.seconds = time.perf_counter() - self.started
        if self.outcome is None:
            self.outcome = "ok" if status < 400 else "error"
        if self._token is not None:
            self._traces.finish(self._token, seconds=self.seconds,
                                status=self.outcome, tree=self.tree)


class HttpApp:
    """What one server adds to the shell: its routes, metrics and loops.

    A subclass sets :attr:`role`, :attr:`post_routes` and
    :attr:`trace_root` and provides:

    * ``async post(route, payload, scope) -> (status, payload)`` on the
      parsed body (a ``RequestError`` it raises is a rejection), or its
      own :meth:`post_body` on the raw bytes;
    * ``observe(scope)``: the terminal event and metric of one ``POST``;
    * ``health() -> dict`` and ``metrics_snapshot() -> dict``;
    * ``render_metrics(snapshot) -> str``, the Prometheus text;
    * ``config.max_body_bytes``, ``shutdown_event``, ``traces`` (a
      :class:`~repro.obs.traces.TraceBuffer`) and ``close()``.

    :meth:`background`, :meth:`start_fields`, :meth:`stream` and
    :meth:`post_body` are optional.
    """

    #: ``repro-<role> listening on ...`` and the ``<role>.start`` event
    role: str
    #: ``POST /<route>`` paths handed to ``post`` (others 404)
    post_routes: frozenset = frozenset()
    #: name of the root span of a traced ``POST``
    trace_root: str

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
        status, payload = await self._scoped_post(route, body, headers or {})
        return status, payload, False

    async def _scoped_post(self, route: str, body: bytes,
                           headers: dict[str, str]) -> tuple[int, object]:
        """One ``POST`` route inside its :class:`RequestScope`, finished
        here exactly once: an answer, a rejection (bad JSON, a
        ``RequestError``) or a 500 ``InternalError`` for an exception
        that escaped the handler.  A cancelled request records nothing."""
        scope = RequestScope(route, self.traces, self.trace_root)
        status, payload = None, None
        try:
            try:
                handler = self.post_body(route, body, headers, scope)
            except ValueError as exc:
                scope.mark("rejected", error=str(exc))
                status, payload = 400, error_payload(route, "BadJSON", str(exc))
            else:
                status, payload = await handler
        except RequestError as exc:
            scope.mark("rejected", error=str(exc))
            status, payload = exc.status, error_payload(
                scope.endpoint, "RequestError", str(exc))
        except Exception as exc:  # noqa: BLE001 - answered, never dropped
            scope.mark("error", error=type(exc).__name__)
            if scope.tracer is not None:
                scope.tree = scope.tracer.tree().to_dict()
            status, payload = 500, error_payload(
                scope.endpoint, "InternalError", f"{type(exc).__name__}: {exc}")
        finally:
            scope.finish(status)
            if status is not None:
                self.observe(scope)
        return status, payload

    def post_body(self, route: str, body: bytes, headers: dict[str, str],
                  scope: RequestScope):
        """The handler coroutine of one ``POST`` body: :func:`json_body`,
        then ``post``.  A ``ValueError`` raised here, before the handler
        runs, is answered 400 ``BadJSON``."""
        # post() takes the only reference to the parsed body, so a
        # handler can free it once its task holds arrays
        return self.post(route, json_body(body, headers), scope)

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
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
        idle: set | None = None,
    ) -> None:
        """Serve requests on one socket until the client leaves.

        Keep-alive by default: the loop re-reads after each response, so
        a client reusing its connection pays the TCP setup once and the
        warm path stays a dictionary lookup.  ``Connection: close``,
        oversized bodies (answered 413, then read off before the close),
        malformed requests, streams, ``/shutdown`` and a set
        ``shutdown_event`` all end the loop.  ``idle``, if given, holds this connection's task
        while it waits for a next request (:func:`serve` cancels those at
        shutdown).
        """
        shutdown = False
        if idle is None:
            idle = set()
        task = asyncio.current_task()
        # register the accepted socket so pool workers forked while this
        # connection is open close their inherited copy — otherwise a
        # daemon death would never reset the connection and the client
        # would block instead of failing over
        conn_sock = writer.get_extra_info("socket")
        if conn_sock is not None:
            register_parent_socket(conn_sock)
        try:
            while not self.shutdown_event.is_set():
                idle.add(task)
                try:
                    request = await read_request(reader,
                                                 self.config.max_body_bytes)
                except PayloadTooLarge as exc:
                    await respond(writer, 413,
                                  error_payload(exc.target, "PayloadTooLarge",
                                                str(exc)),
                                  close=True)
                    await _drain_refused(reader, writer, exc.length)
                    return
                finally:
                    idle.discard(task)
                if request is None:
                    return
                if request.problem:
                    reason = REASONS[request.status].replace(" ", "")
                    await respond(writer, request.status,
                                  error_payload("", reason, request.problem),
                                  close=True)
                    if request.status == 431:
                        # the rest of the head is unread: read it off, as
                        # after a 413, so the close does not reset the answer
                        await _drain_refused(reader, writer, MAX_BODY_BYTES)
                    return
                if await self.stream(request, writer):
                    return
                status, payload, shutdown = await self.handle_request(
                    request.method, request.target, request.body,
                    request.headers,
                )
                close = (shutdown or request.close
                         or self.shutdown_event.is_set())
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
            # teardown may cancel the wait as well; a cancellation that
            # escaped here would end the task cancelled, which the
            # streams machinery logs as an error
            with contextlib.suppress(Exception, asyncio.CancelledError):
                writer.close()
                await writer.wait_closed()
            if shutdown:
                self.shutdown_event.set()


async def _drain_refused(reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter, length: int) -> None:
    """Half-close after a 413 and read off a refused body of up to
    :data:`MAX_BODY_BYTES`.  A sender still writing it (a gateway under a
    larger cap) then reads the 413: a close with unread bytes resets the
    connection, and asyncio reports a reset before any buffered answer."""
    if length <= MAX_BODY_BYTES:
        writer.write_eof()
        while length > 0 and (chunk := await reader.read(min(length, 2**16))):
            length -= len(chunk)


async def serve(app: HttpApp, host: str, port: int, ready=None,
                announce: bool = True) -> None:
    """Serve ``app`` until ``/shutdown`` or SIGINT/SIGTERM, then close it.

    ``port=0`` binds an ephemeral port; the chosen one is announced on
    stdout as ``repro-<role> listening on http://HOST:PORT`` so wrappers
    (benchmarks, the CI smoke jobs) can parse it.  ``ready``, if given,
    is called with ``(app, host, actual_port, loop)`` once the socket is
    bound — :class:`ServerThread` uses it.
    """
    idle: set[asyncio.Task] = set()
    server = await asyncio.start_server(
        functools.partial(app.handle_connection, idle=idle), host, port,
        limit=MAX_HEAD_LINE_BYTES)
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
            # a kept-alive peer (a client, a gateway's idle forward
            # socket) never hangs up by itself: end the connections
            # waiting for a next request, or leaving the block would wait
            # on them (Server.wait_closed waits for every connection from
            # Python 3.12 on).  A connection serving a request answers it
            # with Connection: close and ends by itself
            for task in list(idle):
                task.cancel()
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
# async client side (gateway forwards and health probes)
# ----------------------------------------------------------------------

#: what a dead or misbehaving peer raises out of one exchange
#: (``ConnectionError`` and a refused connect are ``OSError``s; an
#: unreadable status line or length and a head over the limits are
#: ``ValueError``s)
CONNECTION_ERRORS = (OSError, asyncio.IncompleteReadError, ValueError)


def _request_head(host: str, port: int, method: str, path: str, length: int,
                  headers: dict[str, str] | None) -> bytes:
    extra = "".join(f"{name}: {value}\r\n"
                    for name, value in (headers or {}).items())
    return (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {length}\r\n"
        f"{extra}"
        "Connection: keep-alive\r\n\r\n"
    ).encode("latin1")


async def read_response(
    reader: asyncio.StreamReader,
) -> tuple[int, bytes, bool]:
    """One response off the stream: ``(status, body, reusable)``.

    Chunked bodies are de-chunked.  ``reusable`` says the connection can
    carry a next request: an HTTP/1.1 answer without ``Connection:
    close`` whose body had a known end.  A head over the limits raises
    ``ValueError``.
    """
    status_line = await _head_line(reader)
    parts = status_line.split()
    if len(parts) < 2:
        raise ConnectionError(f"malformed status line {status_line!r}")
    status = int(parts[1])
    headers = dict(await _read_fields(reader))
    reusable = (parts[0] == b"HTTP/1.1"
                and headers.get("connection", "").lower() != "close")
    if headers.get("transfer-encoding", "").lower() == "chunked":
        chunks = []
        while True:
            size_line = await reader.readline()
            size = int(size_line.strip() or b"0", 16)
            if size == 0:
                await reader.readline()
                break
            chunks.append(await reader.readexactly(size))
            await reader.readexactly(2)  # trailing CRLF
        return status, b"".join(chunks), reusable
    length = headers.get("content-length")
    if length is not None:
        return status, await reader.readexactly(int(length)), reusable
    return status, await reader.read(), False


class KeptAlive:
    """One server's idle keep-alive connections, reused newest first.

    At most :attr:`IDLE` sockets wait between requests; a busier moment
    opens more, and each closes after its exchange once the stack is
    full.  A connection goes back on the stack only when its answer
    allows it (:func:`read_response`); any failure or cancellation
    mid-exchange closes it.  Not thread-safe: one event loop owns it.
    """

    #: idle sockets kept per server (the default ``/batch`` window, so a
    #: default batch reuses every socket even when one replica takes it)
    IDLE = 8

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self._idle: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []

    async def request(
        self, method: str, path: str, body: bytes = b"",
        headers: dict[str, str] | None = None,
    ) -> tuple[int, bytes, bool]:
        """One exchange; returns ``(status, body, reused)``.

        An idle socket may have been closed by the server since its last
        answer (a restart, an idle timeout), so a failure on a reused one
        closes every idle socket and retries once on a fresh connection.
        Only the fresh connection's failure is raised (one of
        :data:`CONNECTION_ERRORS`).
        """
        if self._idle:
            try:
                return (*await self._exchange(self._idle.pop(), method, path,
                                              body, headers), True)
            except CONNECTION_ERRORS:
                self.close()  # its siblings idled as long as it did
        connection = await asyncio.open_connection(
            self.host, self.port, limit=MAX_HEAD_LINE_BYTES)
        return (*await self._exchange(connection, method, path, body,
                                      headers), False)

    async def _exchange(self, connection, method, path, body,
                        headers) -> tuple[int, bytes]:
        reader, writer = connection
        try:
            writer.write(_request_head(self.host, self.port, method, path,
                                       len(body), headers) + body)
            await writer.drain()
            status, data, reusable = await read_response(reader)
        except BaseException:
            writer.close()
            raise
        if reusable and len(self._idle) < self.IDLE:
            self._idle.append(connection)
        else:
            writer.close()
        return status, data

    def close(self) -> None:
        """Close every idle socket (in-flight exchanges are unaffected)."""
        while self._idle:
            _, writer = self._idle.pop()
            writer.close()
