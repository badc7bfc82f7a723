"""The gateway hop: byte-for-byte forwarding over kept-alive sockets.

A stub replica records exactly what reaches it (path, headers, body
bytes), so these tests pin the wire: the caller's bytes go through
unchanged, the gateway's own trace context rides in a header, a
client's other headers never do, and an invalid body never leaves the
gateway.  The trace tests run real replicas, whose
spans must still parent under the gateway's ``gateway.forward``.
"""

import asyncio
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.cluster import ClusterHarness, GatewayConfig, GatewayThread
from repro.matrices import banded
from repro.obs.context import TraceContext
from repro.service import (ServiceClient, ServiceConfig, ServiceThread,
                           matrix_payload)
from repro.service.httpd import json_body, read_response
from repro.service.protocol import (
    matrix_name,
    normalize_request,
    request_key,
)

SETUP = {"num_threads": 8}
BODY = json.dumps({"matrix": {"name": "banded_001", "collection": "tiny"},
                   "setup": SETUP}, indent=1).encode()


class StubReplica(ThreadingHTTPServer):
    """An HTTP/1.1 keep-alive stub: records every ``POST`` and counts its
    open connections; ``/healthz`` answers ``healthy``.  With
    ``drop_idle`` it closes each connection after answering while still
    announcing keep-alive, as a restarted or idle-timing-out server
    would leave a client's pooled socket."""

    daemon_threads = True

    def __init__(self, drop_idle: bool = False) -> None:
        self.posts: list[tuple[str, dict, bytes]] = []
        self.open_connections = 0
        self.healthy = True
        self.drop_idle = drop_idle
        self.lock = threading.Lock()
        super().__init__(("127.0.0.1", 0), _StubHandler)
        threading.Thread(target=self.serve_forever, daemon=True).start()

    @property
    def node(self) -> tuple[str, int]:
        return self.server_address[:2]

    def stop(self) -> None:
        self.shutdown()
        self.server_close()


class _StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.open_connections += 1

    def finish(self):
        super().finish()
        with self.server.lock:
            self.server.open_connections -= 1

    def _answer(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Connection", "keep-alive")
        self.end_headers()
        self.wfile.write(body)
        if self.server.drop_idle:
            self.close_connection = True

    def do_GET(self):
        if self.path == "/healthz":
            self._answer(200 if self.server.healthy else 503,
                         {"ok": self.server.healthy})
        else:
            self._answer(200, {"breakers": {}})

    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length") or 0))
        headers = {name.lower(): value for name, value in self.headers.items()}
        with self.server.lock:
            self.server.posts.append((self.path, headers, body))
        self._answer(200, {"ok": True, "endpoint": self.path.lstrip("/"),
                           "key": "0" * 32, "cached": "memory",
                           "result": {}})

    def log_message(self, *args):
        pass


@pytest.fixture
def stub():
    replicas = []

    def start(**kwargs) -> StubReplica:
        replicas.append(StubReplica(**kwargs))
        return replicas[-1]

    yield start
    for replica in replicas:
        replica.stop()


def _gateway(*replicas: StubReplica, **config) -> GatewayThread:
    config.setdefault("probe_interval_seconds", 0)
    return GatewayThread(GatewayConfig(
        replicas=tuple(r.node for r in replicas), **config))


def _post(address, path: str, body: bytes,
          headers: dict | None = None) -> tuple[int, dict]:
    """One raw ``POST`` with exactly these body bytes."""
    sock = socket.create_connection(address, timeout=30.0)
    try:
        head = [f"POST {path} HTTP/1.1", "Host: test",
                f"Content-Length: {len(body)}", "Connection: close"]
        head += [f"{name}: {value}" for name, value in (headers or {}).items()]
        sock.sendall(("\r\n".join(head) + "\r\n\r\n").encode() + body)
        stream = sock.makefile("rb")
        status = int(stream.readline().split()[1])
        length = 0
        while (line := stream.readline()) not in (b"\r\n", b""):
            name, _, value = line.decode().partition(":")
            if name.lower() == "content-length":
                length = int(value)
        return status, json.loads(stream.read(length))
    finally:
        sock.close()


def _metrics(address) -> dict:
    client = ServiceClient(*address, timeout=30.0)
    try:
        return client.metrics()
    finally:
        client.close()


def _wait_until(predicate, seconds: float = 10.0) -> bool:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


# ----------------------------------------------------------------------
# forwarding
# ----------------------------------------------------------------------

def test_replica_receives_the_callers_bytes_verbatim(stub):
    replica = stub()
    caller = TraceContext.new()
    with _gateway(replica) as address:
        status, _ = _post(address, "/classify", BODY,
                          {"X-Repro-Trace": caller.to_header()})
        assert status == 200
        status, _ = _post(address, "/classify", BODY)
        assert status == 200
    (path, headers, body), (_, plain_headers, plain_body) = replica.posts
    assert path == "/classify"
    assert body == BODY and plain_body == BODY
    # this hop's context, in the caller's trace, rides in the header
    hop = TraceContext.from_header(headers["x-repro-trace"])
    assert hop.trace_id == caller.trace_id and hop.span_id != caller.span_id
    assert "x-repro-trace" not in plain_headers


def test_a_clients_peer_header_is_not_forwarded(stub):
    replica = stub()
    with _gateway(replica) as address:
        for _ in range(2):
            status, _ = _post(address, "/classify", BODY,
                              {"X-Repro-Peer": "127.0.0.1:9"})
            assert status == 200
    assert len(replica.posts) == 2
    for _, headers, body in replica.posts:
        assert "x-repro-peer" not in headers
        assert body == BODY


def test_a_daemon_ignores_a_peer_header_and_a_peer_field():
    named = {"matrix": {"name": "banded_001", "collection": "tiny"}}
    plain = normalize_request("classify", named)
    for body in (named, dict(named, peer={"host": "10.0.0.3", "port": 1})):
        for header in ("10.0.0.2:8787", "10.0.0.2"):
            parsed = json_body(json.dumps(body).encode(),
                               {"x-repro-peer": header})
            assert normalize_request("classify", parsed) == plain


def test_an_invalid_body_is_rejected_every_time_and_never_forwarded(stub):
    replica = stub()
    bad = json.dumps({"matrix": {"name": "no_such_matrix",
                                 "collection": "tiny"}}).encode()
    # one value short of the pattern's two entries
    short = json.dumps({"matrix": {"csr": {
        "num_rows": 2, "num_cols": 2, "rowptr": [0, 1, 2], "colidx": [0, 1],
        "values": [1.0]}}}).encode()
    with _gateway(replica) as address:
        for _ in range(3):
            assert _post(address, "/classify", bad)[0] == 404
            assert _post(address, "/classify", b"{not json")[0] == 400
            assert _post(address, "/classify", short)[0] == 400
        metrics = _metrics(address)
    assert replica.posts == []
    assert metrics["bad_requests"] == 9


def test_each_forward_takes_its_callers_trace_header(stub):
    replica = stub()
    first, second = TraceContext.new(), TraceContext.new()
    with _gateway(replica) as address:
        _post(address, "/classify", BODY, {"X-Repro-Trace": first.to_header()})
        _post(address, "/classify", BODY, {"X-Repro-Trace": second.to_header()})
    ids = [TraceContext.from_header(headers["x-repro-trace"]).trace_id
           for _, headers, _ in replica.posts]
    assert ids == [first.trace_id, second.trace_id]


def test_a_body_trace_context_is_re_encoded(stub):
    replica = stub()
    caller = TraceContext.new()
    body = json.dumps({"matrix": {"name": "banded_001", "collection": "tiny"},
                       "trace_context": caller.to_dict()}).encode()
    with _gateway(replica) as address:
        for _ in range(2):
            assert _post(address, "/classify", body)[0] == 200
    assert len(replica.posts) == 2
    for _, headers, forwarded in replica.posts:
        # the body context beats the header at the replica: this hop's
        # context replaces the caller's inside the body
        context = json.loads(forwarded)["trace_context"]
        assert context["trace_id"] == caller.trace_id
        assert context["span_id"] != caller.span_id
        assert "x-repro-trace" not in headers


def test_differently_spelled_bodies_reach_the_same_ring_owner(stub):
    replicas = [stub(), stub(), stub()]
    matrix = banded(40, 3, 2, seed=1)
    csr = {k: v for k, v in matrix_payload(matrix)["csr"].items()
           if k != "values"}
    payload = {"matrix": {"csr": csr}, "setup": SETUP}
    # the models read the pattern only: sent values change no key or name
    valued = {"matrix": {"csr": dict(csr, values=[0.5] * matrix.nnz)},
              "setup": SETUP}
    spellings = [json.dumps(payload, indent=1).encode(),
                 json.dumps(payload).encode(),
                 json.dumps(payload, sort_keys=True, indent=4).encode(),
                 json.dumps(valued).encode()]
    tasks = [normalize_request("classify", json.loads(body))
             for body in spellings]
    assert len({request_key(task) for task in tasks}) == 1
    assert len({matrix_name(task) for task in tasks}) == 1
    thread = _gateway(*replicas)
    with thread as address:
        for body in spellings:
            assert _post(address, "/classify", body)[0] == 200
        owner = thread.gateway.membership.owner(request_key(tasks[0]))
    target, = [r for r in replicas if r.posts]
    assert "%s:%d" % target.node == owner.node
    assert [body for _, _, body in target.posts] == spellings


def _walk(node):
    yield node
    for child in node.get("children", ()):
        yield from _walk(child)


@pytest.mark.parametrize("carrier", ["header", "body"])
def test_replica_spans_parent_under_the_forward(tmp_path, carrier):
    caller = TraceContext.new()
    payload = {"matrix": {"name": "banded_001", "collection": "tiny"},
               "setup": SETUP, "policies": [{"l2_sector1_ways": 3}],
               "trace": True}
    with ClusterHarness(replicas=2, jobs=1, cache_root=tmp_path) as harness:
        if carrier == "header":
            client = harness.client(timeout=120.0, trace_context=caller)
        else:
            client = harness.client(timeout=120.0)
            payload["trace_context"] = caller.to_dict()
        envelope = client.request("POST", "/predict", payload)
        client.close()
    root, = envelope["trace"]["roots"]
    assert root["name"] == "gateway.route"
    assert root["attrs"]["trace_id"] == caller.trace_id
    assert root["attrs"]["parent_span_id"] == caller.span_id
    forward, = [c for c in root["children"] if c["name"] == "gateway.forward"]
    daemon, = [c for c in forward["children"] if c["name"] == "service.request"]
    assert daemon["attrs"]["trace_id"] == caller.trace_id
    assert daemon["attrs"]["parent_span_id"] == root["attrs"]["span_id"]
    assert "evaluate" in [node["name"] for node in _walk(daemon)]


# ----------------------------------------------------------------------
# kept-alive replica connections
# ----------------------------------------------------------------------

@pytest.mark.parametrize("head, reusable", [
    (b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n", True),
    (b"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n",
     True),
    (b"HTTP/1.1 413 Payload Too Large\r\nConnection: close\r\n"
     b"Content-Length: 2\r\n", False),
    (b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n", False),
    (b"HTTP/1.1 200 OK\r\n", False),  # body runs to end of stream
])
def test_only_a_kept_alive_answer_leaves_its_socket_reusable(head, reusable):
    async def read():
        reader = asyncio.StreamReader()
        reader.feed_data(head + b"\r\n{}")
        reader.feed_eof()
        return await read_response(reader)

    assert asyncio.run(read()) == (int(head.split()[1]), b"{}", reusable)


def test_forwards_reuse_one_kept_alive_connection(stub):
    replica = stub()
    with _gateway(replica) as address:
        for _ in range(5):
            assert _post(address, "/classify", BODY)[0] == 200
        assert replica.open_connections == 1
        metrics = _metrics(address)
    assert metrics["forward_connections"] == {"opened": 1, "reused": 4}


def test_a_stale_pooled_socket_does_not_eject_a_healthy_replica(stub):
    replica = stub(drop_idle=True)
    with _gateway(replica) as address:
        for _ in range(4):
            assert _post(address, "/classify", BODY)[0] == 200
        metrics = _metrics(address)
    assert metrics["failovers"] == 0
    assert metrics["membership"]["alive"] == 1
    # every reused socket was stale, so each answer came on a fresh one
    assert metrics["forward_connections"] == {"opened": 4}
    assert len(replica.posts) == 4


def test_a_replica_restarted_on_its_port_is_not_ejected(tmp_path):
    with ClusterHarness(replicas=1, jobs=1, cache_root=tmp_path,
                        gateway_config={"probe_interval_seconds": 0}
                        ) as harness:
        client = harness.client(timeout=120.0)
        client.classify(name="banded_001", collection="tiny", **SETUP)
        harness.kill_replica(0)
        harness.restart_replica(0)
        again = client.classify(name="banded_001", collection="tiny", **SETUP)
        metrics = client.metrics()
        client.close()
    assert again["cached"] == "disk"
    assert metrics["failovers"] == 0
    assert metrics["membership"]["ejections"] == 0
    assert metrics["forward_connections"] == {"opened": 2}


def test_ejection_closes_the_replicas_idle_sockets(stub):
    replica = stub()
    with _gateway(replica, probe_interval_seconds=0.05) as address:
        _post(address, "/classify", BODY)
        assert replica.open_connections >= 1
        replica.healthy = False
        assert _wait_until(
            lambda: _metrics(address)["membership"]["alive"] == 0)
        assert _wait_until(lambda: replica.open_connections == 0)


def test_stopping_the_gateway_closes_every_idle_socket(stub):
    replicas = [stub(), stub()]
    thread = _gateway(*replicas)
    address = thread.start()
    try:
        for threads in range(1, 7):
            body = json.dumps({"matrix": {"name": "banded_001",
                                          "collection": "tiny"},
                               "setup": {"num_threads": threads}}).encode()
            assert _post(address, "/classify", body)[0] == 200
        assert sum(r.open_connections for r in replicas) >= 1
    finally:
        thread.stop()
    assert _wait_until(
        lambda: sum(r.open_connections for r in replicas) == 0)


def test_a_body_over_the_shared_cap_is_refused_at_the_gateway(tmp_path):
    """A body over the gateway's own cap is answered 413 at the gateway:
    nothing is routed and no replica is touched."""
    with ClusterHarness(replicas=2, jobs=1, cache_root=tmp_path) as harness:
        named = json.dumps({"matrix": {"name": "banded_001",
                                       "collection": "tiny"}}).encode()
        body = named[:-1] + b" " * (64 * 2**20) + b"}"
        sock = socket.create_connection(harness.address, timeout=60.0)
        try:
            sock.sendall(f"POST /classify HTTP/1.1\r\nHost: test\r\n"
                         f"Content-Length: {len(body)}\r\n\r\n".encode())
            try:
                sock.sendall(body)
            except OSError:
                pass  # refused at the headers: the rest goes unread
            stream = sock.makefile("rb")
            status = int(stream.readline().split()[1])
        finally:
            sock.close()
        client = harness.client(timeout=60.0)
        metrics = client.metrics()
        client.close()
    assert status == 413
    assert metrics["failovers"] == 0
    assert metrics["membership"]["alive"] == 2
    assert metrics["routed"] == {}


def test_a_replicas_413_under_a_larger_gateway_cap_is_relayed(tmp_path):
    """A replica capped below the gateway refuses a body the gateway
    accepted: it answers 413, reads off the unread body and only then
    closes, so the gateway relays the answer instead of reading a reset
    as a dead replica."""
    replica = ServiceThread(ServiceConfig(jobs=1, cache_dir=str(tmp_path),
                                          max_body_bytes=2**20))
    with replica as node, GatewayThread(GatewayConfig(
            replicas=(node,), probe_interval_seconds=0)) as address:
        named = json.dumps({"matrix": {"name": "banded_001",
                                       "collection": "tiny"}}).encode()
        body = named[:-1] + b" " * (4 * 2**20) + b"}"
        status, answer = _post(address, "/classify", body)
        metrics = _metrics(address)
    assert status == 413
    assert answer["error"]["type"] == "PayloadTooLarge"
    assert metrics["failovers"] == 0
    assert metrics["membership"]["alive"] == 1
