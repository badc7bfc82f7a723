"""The HTTP server shell, pinned on both servers that run it.

The advisor daemon and the cluster gateway answer transport-level
trouble (oversized bodies, malformed requests, unknown methods and
paths, keep-alive, ``Connection: close``) and the shared introspection
routes (``/metrics``, ``/debug/traces``) identically; every case runs
against both over a raw socket, so the exact wire behaviour is what is
checked, not a client's reading of it.
"""

import json
import socket

import pytest

from repro.cluster import GatewayConfig, GatewayThread
from repro.service import ServiceConfig, ServiceThread

#: small enough that a test body trips it
MAX_BODY = 1024


@pytest.fixture(scope="module", params=["daemon", "gateway"])
def address(request):
    if request.param == "daemon":
        thread = ServiceThread(ServiceConfig(jobs=1, cache_dir=None,
                                             max_body_bytes=MAX_BODY))
    else:
        # the shell cases never forward, so the replica need not exist;
        # probe_interval 0 keeps the membership loop quiet
        thread = GatewayThread(GatewayConfig(replicas=(("127.0.0.1", 9),),
                                             probe_interval_seconds=0,
                                             max_body_bytes=MAX_BODY))
    with thread as addr:
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


def _exchange(address, raw: bytes) -> tuple[int, dict, bytes, socket.socket]:
    sock = socket.create_connection(address, timeout=30.0)
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
