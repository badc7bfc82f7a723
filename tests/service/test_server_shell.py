"""The HTTP server shell, pinned on both servers that run it.

The advisor daemon and the cluster gateway answer transport-level
trouble (oversized bodies, malformed requests, unknown methods and
paths, keep-alive, ``Connection: close``) and the shared introspection
routes (``/metrics``, ``/debug/traces``) identically; every case runs
against both over a raw socket, so the exact wire behaviour is what is
checked, not a client's reading of it.
"""

import asyncio
import json
import logging
import socket
import threading

import pytest

from repro.cluster import GatewayConfig, GatewayThread
from repro.obs.traces import TraceBuffer
from repro.service import ServiceConfig, ServiceThread
from repro.service.httpd import (
    CONNECTION_ERRORS,
    MAX_HEAD_LINE_BYTES,
    MAX_HEADER_FIELDS,
    HttpApp,
    read_response,
    serve,
)

#: small enough that a test body trips it
MAX_BODY = 1024


def _server(role: str):
    if role == "daemon":
        return ServiceThread(ServiceConfig(jobs=1, cache_dir=None,
                                           max_body_bytes=MAX_BODY))
    # the shell cases never forward, so the replica need not exist;
    # probe_interval 0 keeps the membership loop quiet
    return GatewayThread(GatewayConfig(replicas=(("127.0.0.1", 9),),
                                       probe_interval_seconds=0,
                                       max_body_bytes=MAX_BODY))


@pytest.fixture(scope="module", params=["daemon", "gateway"])
def address(request):
    with _server(request.param) as addr:
        yield addr


def _request(method: str, target: str, body: bytes = b"",
             headers: dict | None = None) -> bytes:
    lines = [f"{method} {target} HTTP/1.1", "Host: test"]
    fields = {"Content-Length": str(len(body))} if body else {}
    fields.update(headers or {})
    lines += [f"{name}: {value}" for name, value in fields.items()]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin1") + body


def _read_response(sock: socket.socket) -> tuple[int, dict, bytes]:
    """One ``Content-Length`` response off the socket."""
    stream = sock.makefile("rb")
    status_line = stream.readline()
    assert status_line, "the server closed without a reply"
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = stream.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = stream.read(int(headers["content-length"]))
    return status, headers, body


def _closed(sock: socket.socket) -> bool:
    sock.settimeout(5.0)
    return sock.recv(1) == b""


def _exchange(address, raw: bytes, timeout: float = 30.0,
              ) -> tuple[int, dict, bytes, socket.socket]:
    sock = socket.create_connection(address, timeout=timeout)
    sock.sendall(raw)
    return (*_read_response(sock), sock)


def test_oversized_body_is_413_and_closes(address):
    body = b"{" + b" " * (2 * MAX_BODY) + b"}"
    status, headers, payload, sock = _exchange(
        address, _request("POST", "/predict", body))
    with sock:
        assert status == 413
        assert headers["connection"] == "close"
        error = json.loads(payload)["error"]
        assert error["type"] == "PayloadTooLarge"
        assert _closed(sock)


def test_malformed_request_line_is_400_and_closes(address):
    status, headers, payload, sock = _exchange(address, b"NONSENSE\r\n\r\n")
    with sock:
        assert status == 400
        assert headers["connection"] == "close"
        assert json.loads(payload) == {
            "ok": False, "endpoint": "",
            "error": {"type": "BadRequest",
                      "message": "malformed request line"}}
        assert _closed(sock)


@pytest.mark.parametrize("length", ["abc", "-5", "1.5"])
def test_malformed_content_length_is_400_and_closes(address, length):
    raw = _request("POST", "/predict", headers={"Content-Length": length})
    status, headers, payload, sock = _exchange(address, raw + b"{}")
    with sock:
        assert status == 400
        assert headers["connection"] == "close"
        assert json.loads(payload)["error"]["type"] == "BadRequest"
        assert _closed(sock)


def test_conflicting_content_lengths_are_400_and_close(address):
    # answered from the head: a server that took either length would
    # wait for bytes that never come (the short timeout fails that fast)
    raw = (b"POST /predict HTTP/1.1\r\nHost: test\r\nContent-Length: 5\r\n"
           b"Content-Length: 7\r\n\r\n{\"a\"}")
    status, headers, payload, sock = _exchange(address, raw, timeout=5.0)
    with sock:
        assert status == 400
        assert headers["connection"] == "close"
        assert json.loads(payload)["error"] == {
            "type": "BadRequest",
            "message": "conflicting Content-Length headers"}
        assert _closed(sock)


def test_repeated_equal_content_lengths_are_one(address):
    raw = (b"GET /healthz HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\n"
           b"Content-Length: 0\r\n\r\n")
    status, headers, _, sock = _exchange(address, raw, timeout=5.0)
    with sock:
        assert status == 200
        assert headers["connection"] == "keep-alive"


def test_request_transfer_encoding_is_501_and_closes(address):
    # one answer for one request: the chunk must not be read as a second
    raw = (b"POST /predict HTTP/1.1\r\nHost: test\r\n"
           b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n")
    status, headers, payload, sock = _exchange(address, raw, timeout=5.0)
    with sock:
        assert status == 501
        assert headers["connection"] == "close"
        assert json.loads(payload)["error"]["type"] == "NotImplemented"
        assert _closed(sock)


def test_overlong_header_line_is_431_and_closes(address):
    # past asyncio's 64 KiB line limit: answered, not a dropped connection
    raw = _request("GET", "/healthz", headers={"X-Long": "a" * 70_000})
    status, headers, payload, sock = _exchange(address, raw, timeout=5.0)
    with sock:
        assert status == 431
        assert headers["connection"] == "close"
        assert json.loads(payload)["error"] == {
            "type": "RequestHeaderFieldsTooLarge",
            "message": f"a head line exceeds {MAX_HEAD_LINE_BYTES} bytes"}
        assert _closed(sock)


def test_too_many_header_fields_are_431_and_close(address):
    raw = _request("GET", "/healthz",
                   headers={f"X-H{i}": "1" for i in range(20_000)})
    status, headers, payload, sock = _exchange(address, raw, timeout=5.0)
    with sock:
        assert status == 431
        assert headers["connection"] == "close"
        assert json.loads(payload)["error"] == {
            "type": "RequestHeaderFieldsTooLarge",
            "message": f"more than {MAX_HEADER_FIELDS} header fields"}
        assert _closed(sock)


@pytest.mark.parametrize("head", [
    b"X-Long: " + b"a" * 70_000 + b"\r\n",
    b"".join(b"X-H%d: 1\r\n" % i for i in range(MAX_HEADER_FIELDS + 1)),
], ids=["overlong-line", "too-many-fields"])
def test_response_head_overruns_are_connection_errors(head):
    # what a gateway's forward or probe raises, so it fails over
    async def read():
        reader = asyncio.StreamReader(limit=MAX_HEAD_LINE_BYTES)
        reader.feed_data(b"HTTP/1.1 200 OK\r\n" + head
                         + b"Content-Length: 0\r\n\r\n")
        reader.feed_eof()
        return await read_response(reader)

    with pytest.raises(CONNECTION_ERRORS):
        asyncio.run(read())


def test_put_is_405(address):
    status, _, payload, sock = _exchange(address, _request("PUT", "/predict"))
    with sock:
        assert status == 405
        assert json.loads(payload)["error"]["type"] == "MethodNotAllowed"


def test_unknown_get_path_is_404(address):
    status, _, payload, sock = _exchange(address, _request("GET", "/nowhere"))
    with sock:
        assert status == 404
        assert json.loads(payload) == {
            "ok": False, "endpoint": "/nowhere",
            "error": {"type": "NotFound", "message": "no such path '/nowhere'"}}


def test_two_requests_share_one_keep_alive_socket(address):
    status, headers, _, sock = _exchange(address, _request("GET", "/healthz"))
    with sock:
        assert status == 200
        assert headers["connection"] == "keep-alive"
        sock.sendall(_request("GET", "/metrics"))
        status, headers, payload = _read_response(sock)
        assert status == 200
        assert headers["connection"] == "keep-alive"
        assert "uptime_seconds" in json.loads(payload)


@pytest.mark.parametrize("role", ["daemon", "gateway"])
def test_stop_with_keep_alive_connections_open_logs_no_error(role, caplog):
    # the clients hang up while the server's loop tears down: a handler
    # cancelled while it waits for its socket to close must end cleanly
    caplog.set_level(logging.ERROR)
    for _ in range(3):
        server = _server(role)
        address = server.start()
        socks = []
        for _ in range(4):
            _, headers, _, sock = _exchange(address, _request("GET", "/healthz"))
            assert headers["connection"] == "keep-alive"
            socks.append(sock)
        closer = threading.Thread(target=lambda: [s.close() for s in socks])
        closer.start()
        server.stop()
        closer.join(timeout=30)
        assert not closer.is_alive()
    assert [r.getMessage() for r in caplog.records
            if r.levelno >= logging.ERROR] == []


class _HeldApp(HttpApp):
    """A shell app whose one ``POST`` route waits until released."""

    role = "held"
    post_routes = frozenset({"hold"})
    trace_root = "held.request"

    def __init__(self) -> None:
        self.config = ServiceConfig(max_body_bytes=MAX_BODY)
        self.shutdown_event = asyncio.Event()
        self.traces = TraceBuffer()
        self.held = asyncio.Event()
        self.release = asyncio.Event()

    async def post(self, route, payload, scope):
        self.held.set()
        await self.release.wait()
        return 200, {"ok": True}

    def observe(self, scope) -> None:
        pass

    def health(self) -> dict:
        return {"ok": True}

    def close(self) -> None:
        pass


def test_shutdown_ends_idle_connections_and_lets_busy_ones_answer():
    async def scenario():
        app = _HeldApp()
        bound = asyncio.get_running_loop().create_future()
        server = asyncio.ensure_future(serve(
            app, "127.0.0.1", 0, announce=False,
            ready=lambda _app, host, port, _loop: bound.set_result(port)))
        port = await asyncio.wait_for(bound, 30)
        parked, parked_writer = await asyncio.open_connection("127.0.0.1", port)
        busy, busy_writer = await asyncio.open_connection("127.0.0.1", port)
        parked_writer.write(_request("GET", "/healthz"))
        assert (await read_response(parked))[::2] == (200, True)
        busy_writer.write(_request("POST", "/hold", b"{}"))
        await asyncio.wait_for(app.held.wait(), 30)
        app.shutdown_event.set()
        # the connection waiting for a next request is ended at once ...
        assert await asyncio.wait_for(parked.read(), 30) == b""
        # ... while the one serving a request answers it, then closes
        app.release.set()
        status, body, reusable = await asyncio.wait_for(
            read_response(busy), 30)
        assert (status, json.loads(body), reusable) == (200, {"ok": True},
                                                         False)
        assert await asyncio.wait_for(busy.read(), 30) == b""
        await asyncio.wait_for(server, 30)
        for writer in (parked_writer, busy_writer):
            writer.close()

    asyncio.run(scenario())


def test_connection_close_is_honoured(address):
    raw = _request("GET", "/healthz", headers={"Connection": "close"})
    status, headers, _, sock = _exchange(address, raw)
    with sock:
        assert status == 200
        assert headers["connection"] == "close"
        assert _closed(sock)


def test_unknown_metrics_format_is_bad_format(address):
    status, _, payload, sock = _exchange(
        address, _request("GET", "/metrics?format=xml"))
    with sock:
        assert status == 400
        assert json.loads(payload) == {
            "ok": False, "endpoint": "metrics",
            "error": {"type": "BadFormat",
                      "message": "unknown metrics format 'xml' "
                                 "(expected 'json' or 'prometheus')"}}


def test_non_integer_trace_limit_is_bad_limit(address):
    status, _, payload, sock = _exchange(
        address, _request("GET", "/debug/traces?limit=banana"))
    with sock:
        assert status == 400
        assert json.loads(payload) == {
            "ok": False, "endpoint": "debug/traces",
            "error": {"type": "BadLimit",
                      "message": "limit must be an integer"}}


_CSR = '"csr": {"num_rows": 2, "num_cols": 2, "rowptr": [0, 1, 2]'


@pytest.mark.parametrize("route, body, fragment", [
    ("/predict", '{"matrix": {"csr": {"num_rows": "abc", "num_cols": 2, '
                 '"rowptr": [0], "colidx": []}}}', "csr.num_rows"),
    ("/predict", '{"matrix": {' + _CSR + ', "colidx": [1e999, 0]}}}',
     "csr.colidx"),
    ("/predict", '{"matrix": {' + _CSR + ', "colidx": [0, 1], "values": [1, '
                 + "9" * 400 + ']}}}', "csr.values"),
    ("/predict", '{"matrix": {' + _CSR + ', "colidx": [0, '
                 + str(2**63) + ']}}}', "int64"),
    ("/predict", '{"matrix": {' + _CSR + ', "colidx": [0, 1]}}, '
                 '"setup": {"num_threads": 1e999}}', "setup.num_threads"),
    ("/advise", '{"matrix": {' + _CSR + ', "colidx": [0, 1]}}, '
                '"min_sector1_ways_with_prefetch": "four"}',
     "min_sector1_ways_with_prefetch"),
    ("/delta", '{"base": "' + "0" * 32 + '", "delta": {"inserts": '
               '[[1e999, 0]]}}', "inserts[0]"),
    ("/delta", '{"base": "' + "0" * 32 + '", "delta": {"deletes": '
               '[[0, 0]]}, "max_tier": 1e999}', "max_tier"),
], ids=["num_rows-string", "colidx-inf", "values-400-digits",
        "colidx-beyond-int64", "num_threads-inf", "ways-string",
        "delta-insert-inf", "delta-max_tier-inf"])
def test_malformed_numbers_are_400_not_a_dropped_connection(
        address, route, body, fragment):
    status, headers, payload, sock = _exchange(
        address, _request("POST", route, body.encode()))
    with sock:
        assert status == 400
        error = json.loads(payload)["error"]
        assert error["type"] == "RequestError"
        assert fragment in error["message"]
        # the connection survives the rejection
        assert headers["connection"] == "keep-alive"
        sock.sendall(_request("GET", "/healthz"))
        assert _read_response(sock)[0] == 200
