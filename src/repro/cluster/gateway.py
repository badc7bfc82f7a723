"""The cluster gateway: consistent-hash routing over replica daemons.

One gateway fronts N advisor replicas (each a plain ``repro.service``
daemon).  Per model request it:

1. validates the payload with the *same* :func:`normalize_request` the
   replicas use (a 400 never costs a replica round trip) and computes
   the canonical sha256 request key;
2. consistent-hash routes the key to its owner replica
   (:class:`~repro.cluster.ring.HashRing` over the live membership);
3. forwards the caller's bytes unchanged, with this hop's trace context
   in ``X-Repro-Trace``, over a kept-alive connection
   (:class:`~repro.service.httpd.KeptAlive`, a small stack of idle
   sockets per replica), and relays the replica's response
   **verbatim** — routed answers are byte-identical to a direct
   single-daemon call.  Only a body carrying its own ``trace_context``
   is re-encoded, with this hop's context in its place: a body context
   beats the header at the replica;
4. on a connection failure, ejects the replica from the ring on the
   spot and fails over to the next node in the key's preference
   sequence — a replica killed mid-burst loses zero requests.  A failed
   *reused* socket is retried once on a fresh one first (the replica
   may only have restarted); ejection closes the replica's idle sockets.
   A key that remaps after a membership change is answered by its new
   owner from that replica's own cache tiers or a fresh evaluation.

Membership is driven by the existing health surface: a background loop
probes every replica's ``/healthz`` and breaker state
(:mod:`repro.cluster.membership`); an open breaker or a failed probe
ejects, recovery re-admits with bounded key remapping.  The gateway is
the single source of membership truth — replicas hold no cluster state,
so there is no split brain to reconcile.

``POST /batch`` streams a whole collection sweep back as NDJSON with a
bounded in-flight window (:mod:`repro.cluster.batch`), plugged into the
shared connection loop through :meth:`ClusterGateway.stream`.

The HTTP side is the server shell in :mod:`repro.service.httpd`, the
same one the replica daemons run: this module adds only the gateway's
routes, its ``/healthz`` and ``/metrics`` content and the membership
probe loop.  Each gateway metric is one row of :data:`GATEWAY_FAMILIES`:
the gateway writes its counters into a
:class:`~repro.obs.prometheus.MetricStore` over that table, and
``/metrics`` is the store's snapshot with uptime and the membership
read off their own objects.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from ..obs import events as obs_events
from ..obs.context import TRACE_HEADER, TraceContext
from ..obs.events import EventLog
from ..obs.prometheus import Family, MetricStore, Sample, render
from ..obs.traces import TraceBuffer
from ..obs.tracer import Tracer
from ..obs.tree import TraceTree
from ..service.httpd import (
    CONNECTION_ERRORS,
    MAX_BODY_BYTES,
    HttpApp,
    ParsedRequest,
    RequestScope,
    ServerThread,
    error_payload,
    finish_chunked_response,
    json_body,
    request_span,
    respond,
    serve,
    start_chunked_response,
    write_chunk,
)
from ..service.protocol import (
    ENDPOINTS,
    RequestError,
    normalize_delta,
    normalize_request,
    request_key,
)
from .batch import BatchItem, normalize_batch
from .membership import MembershipController

__all__ = ["GATEWAY_FAMILIES", "ClusterGateway", "GatewayConfig",
           "GatewayThread", "render_gateway_prometheus", "run_gateway"]


@dataclass(frozen=True)
class GatewayConfig:
    """Gateway tunables.

    Each field has one ``python -m repro.cluster`` flag (docs/OPERATIONS.md
    §6), except ``max_body_bytes``, which is set in-process only;
    ``--replica`` and ``--spawn`` together fill ``replicas``.
    """

    #: replica daemons as ``(host, port)`` pairs
    replicas: tuple = ()
    #: seconds between health/breaker probe rounds (0 disables the loop —
    #: tests drive probes by hand; data-path ejection still works)
    probe_interval_seconds: float = 2.0
    #: consecutive failed probes that eject a replica
    fail_after: int = 1
    #: default and per-request in-flight window for /batch
    batch_window: int = 8
    #: request-body cap, the replicas' default: a body is forwarded as
    #: sent, so one the gateway accepts must fit a replica too
    max_body_bytes: int = MAX_BODY_BYTES
    #: structured JSON-lines event log (None disables)
    event_log_path: str | None = None

    def __post_init__(self) -> None:
        if not self.replicas:
            raise ValueError("at least one replica is required")
        if self.fail_after < 1:
            raise ValueError("fail_after must be positive")
        if self.batch_window < 1:
            raise ValueError("batch_window must be positive")


def _membership_changes(membership: dict) -> Iterator[Sample]:
    yield "", {"kind": "ejection"}, membership.get("ejections", 0)
    yield "", {"kind": "readmission"}, membership.get("readmissions", 0)


#: the gateway's exposition (``GET /metrics?format=prometheus``)
GATEWAY_FAMILIES = (
    Family("uptime_seconds", "gauge", "Gateway uptime.", "uptime_seconds",
           as_float=True, view=True),
    Family("routed_total", "counter",
           "Forwards answered, by endpoint and replica.",
           "routed.*.*", ("endpoint", "replica")),
    Family("failovers_total", "counter",
           "Forwards retried on the next replica after a dead socket.",
           "failovers"),
    Family("delta_retargets_total", "counter",
           "Delta forwards retried on another replica after a registry 404 "
           "(chained base keys can hash away from their chain root's owner).",
           "delta_retargets"),
    Family("requests_exhausted_total", "counter",
           "Requests every candidate replica failed (lost work).", "exhausted"),
    Family("requests_no_replicas_total", "counter",
           "Requests refused because the ring held no live replica.",
           "no_replicas"),
    Family("forward_connections_total", "counter",
           "Forwards answered, by connection: a fresh one opened or an "
           "idle one reused.",
           "forward_connections.*", ("outcome",)),
    Family("bad_requests_total", "counter",
           "Requests rejected at the gateway without a forward.",
           "bad_requests"),
    Family("batches_total", "counter", "Batch requests accepted.",
           "batch.batches"),
    Family("batch_items_total", "counter",
           "Batch items streamed, by terminal status.",
           "batch.items.*", ("status",)),
    Family("batch_inflight_peak", "gauge",
           "Peak concurrent in-flight batch items.", "batch.inflight_peak"),
    # a bool leaf is exposed as 1/0
    Family("replica_up", "gauge",
           "Replica liveness in the ring (1 = in, 0 = ejected).",
           "membership.replicas.*.healthy", ("replica",), view=True),
    Family("membership_changes_total", "counter",
           "Ring membership transitions, by kind.",
           "membership", ("kind",), sampler=_membership_changes, view=True),
    Family("request_latency_seconds", "histogram",
           "Gateway round-trip latency by endpoint.",
           "latency_seconds.*", ("endpoint",)),
)


def render_gateway_prometheus(snapshot: dict, prefix: str = "repro_gateway") -> str:
    """Prometheus text exposition of the gateway snapshot."""
    return render(GATEWAY_FAMILIES, snapshot, prefix)


#: ceiling, in seconds, on one forward; a request may carry its own
#: smaller ``timeout``
FORWARD_TIMEOUT_SECONDS = 300.0


class ClusterGateway(HttpApp):
    """Gateway logic behind the server shell: route, fail over, stream."""

    role = "gateway"
    post_routes = frozenset(ENDPOINTS) | {"delta"}
    trace_root = "gateway.route"
    render_metrics = staticmethod(render_gateway_prometheus)

    def __init__(self, config: GatewayConfig) -> None:
        self.config = config
        self.membership = MembershipController(
            [tuple(r) for r in config.replicas],
            fail_after=config.fail_after,
        )
        self.started = time.monotonic()
        self.metrics = MetricStore(GATEWAY_FAMILIES)
        self.traces = TraceBuffer()
        self._event_log = None
        self._previous_event_log = None
        if config.event_log_path is not None:
            self._event_log = EventLog(config.event_log_path, role="gateway")
            self._previous_event_log = obs_events.install(self._event_log)
        self.shutdown_event = asyncio.Event()

    def close(self) -> None:
        for replica in self.membership.replicas:
            replica.connections.close()
        if self._event_log is not None:
            obs_events.emit("gateway.stop")
            obs_events.install(self._previous_event_log)
            self._event_log.close()

    def health(self) -> dict:
        alive = len(self.membership.alive)
        return {
            "ok": alive > 0,
            "status": "healthy" if alive else "no live replicas",
            "role": "gateway",
            "replicas": {"alive": alive,
                         "total": len(self.membership.replicas)},
        }

    def metrics_snapshot(self) -> dict:
        return self.metrics.snapshot({
            "uptime_seconds": time.monotonic() - self.started,
            "membership": self.membership.snapshot(),
        })

    def background(self) -> list:
        return [self.probe_loop()]

    def start_fields(self) -> dict:
        return {"replicas": len(self.config.replicas)}

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def route_task(
        self, endpoint: str, body: bytes, key: str,
        timeout: float | None = None, tracer: Tracer | None = None,
        trace_id: str | None = None, trace_header: str | None = None,
    ) -> tuple[int, bytes, object]:
        """Forward one validated request's bytes to its owner, failing over
        along the key's preference sequence; returns ``(status, response,
        winning_forward_span)`` — the span is the anchor the caller grafts
        the winning replica's trace under (None without a tracer).
        ``trace_header`` is this hop's context for ``X-Repro-Trace``."""
        if timeout is None:
            timeout = FORWARD_TIMEOUT_SECONDS
        timeout = min(timeout, FORWARD_TIMEOUT_SECONDS) + 5.0
        headers = {TRACE_HEADER: trace_header} if trace_header else {}
        tried: set[str] = set()
        while True:
            candidates = [r for r in self.membership.preference(key)
                          if r.node not in tried]
            if not candidates:
                if tried:
                    self.metrics.count("exhausted")
                    return 503, _error_bytes(
                        endpoint, "NoReplicaAnswered",
                        f"all {len(tried)} candidate replicas failed for "
                        f"key {key}",
                    ), None
                self.metrics.count("no_replicas")
                return 503, _error_bytes(
                    endpoint, "NoReplicas",
                    "no live replicas in the ring; retry after the next "
                    "probe round",
                ), None
            replica = candidates[0]
            forward = request_span(tracer, "gateway.forward", replica=replica.node)
            with forward:
                try:
                    status, response, reused = await asyncio.wait_for(
                        replica.connections.request("POST", f"/{endpoint}",
                                                    body, headers),
                        timeout)
                except (*CONNECTION_ERRORS, asyncio.TimeoutError) as exc:
                    # a dead socket (a fresh one: a stale reused socket
                    # was already retried) or a timeout ejects the
                    # replica immediately; the key's next preference node
                    # takes the retry (evaluations are idempotent and
                    # cached, so a duplicate is at most one extra cache
                    # lookup on the failed node's side)
                    forward.annotate(outcome="failover",
                                     error=type(exc).__name__)
                    tried.add(replica.node)
                    self.membership.mark_down(
                        replica.node, f"{type(exc).__name__}: {exc}"
                    )
                    self.metrics.count("failovers")
                    obs_events.emit("gateway.failover", trace_id=trace_id,
                                    endpoint=endpoint, key=key,
                                    replica=replica.node,
                                    error=type(exc).__name__)
                    continue
                self.metrics.count("forward_connections",
                                   "reused" if reused else "opened")
                forward.annotate(outcome="ok", status=status)
            if not replica.healthy:
                # ejected while this forward was in flight: its socket
                # just went back on a stack nothing should keep
                replica.connections.close()
            if endpoint == "delta" and status == 404 and len(candidates) > 1:
                # the ring owner of a *derived* base key need not hold the
                # chain root's registry entry (the root request was routed
                # by its own key) — a registry 404 is only authoritative
                # once every live replica has said it.  Evaluations are
                # idempotent, so asking the rest costs one miss each.
                forward.annotate(outcome="retarget", status=status)
                tried.add(replica.node)
                self.metrics.count("delta_retargets")
                obs_events.emit("gateway.delta_retarget", trace_id=trace_id,
                                endpoint=endpoint, key=key,
                                replica=replica.node)
                continue
            self.metrics.count("routed", endpoint, replica.node)
            return status, response, (forward if tracer is not None else None)

    def post_body(self, route: str, body: bytes, headers: dict[str, str],
                  scope: RequestScope):
        """Parse one model or ``/delta`` body for :meth:`_post`, which
        forwards its bytes as sent."""
        # the body's own fields only: the caller's X-Repro-Trace is read
        # in _post
        return self._post(route, body, json_body(body, {}), headers, scope)

    async def _post(self, route: str, body: bytes, payload: object,
                    headers: dict[str, str],
                    scope: RequestScope) -> tuple[int, bytes]:
        """Validate one model or ``/delta`` request and route its bytes."""
        if route == "delta":
            # a delta must land on the replica that answered — and so
            # stores the task, warm cache entries and worker reuse states
            # of — its base request; that replica was chosen by hashing
            # the base key, so routing by the base key again is exactly
            # the affinity needed.  Base resolution (404/409) stays with
            # the replica that owns the registry.
            task = normalize_delta(payload)
            key = task["base"]
        else:
            task = normalize_request(route, payload)
            key = request_key(task)
        scope.key = key
        timeout = task.get("timeout")
        del task
        # this gateway hop of the distributed trace; the replica's spans
        # parent here.  A body's own trace_context beats the header at
        # the replica, so only such a body is re-encoded, with this hop's
        # context in its place; any other goes as sent, the context in
        # X-Repro-Trace
        reencode = "trace_context" in payload
        carrier = payload
        if not reencode:
            carrier = {"trace": payload.get("trace")}
            incoming = TraceContext.from_header(
                headers.get(TRACE_HEADER.lower()))
            if incoming is not None:
                carrier["trace_context"] = incoming.to_dict()
            # an inline matrix's number lists are garbage from here on
            del payload
        with scope.traced(carrier, key=key):
            trace_header = None
            if reencode:
                body = json.dumps(carrier).encode()
            elif scope.ctx is not None:
                trace_header = scope.ctx.to_header()
            status, response, forward = await self.route_task(
                route, body, key, timeout, tracer=scope.tracer,
                trace_id=scope.trace_id, trace_header=trace_header,
            )
        if scope.tracer is not None:
            response, scope.tree = self._merge_forward_trace(
                scope.tracer, forward, response)
        return status, response

    def observe(self, scope: RequestScope) -> None:
        """The terminal metric and ``gateway.request`` event of one
        ``POST``: a rejection counts as a bad request, anything the
        gateway answered past validation lands in the latency histogram."""
        if scope.outcome == "rejected":
            self.metrics.count("bad_requests")
        else:
            self.metrics.observe("latency_seconds", scope.endpoint,
                                 value=scope.seconds)
        obs_events.emit("gateway.request", trace_id=scope.trace_id,
                        endpoint=scope.endpoint, key=scope.key,
                        status=scope.status, seconds=scope.seconds)

    def _merge_forward_trace(self, tracer: Tracer, forward,
                             response: bytes) -> tuple[bytes, dict | None]:
        """Rewrite a traced forward's envelope with ONE merged tree;
        returns the new envelope bytes and the tree (None when the
        replica's answer is not a JSON object).

        The winning replica's envelope trace (its ``service.request`` and
        worker ``evaluate`` roots) is grafted under the gateway's winning
        ``gateway.forward`` span, so the caller sees a single tree rooted
        at ``gateway.route`` spanning routing, failover hops and the
        replica's evaluation phases.  A replica that answered from cache
        ships ``"trace": null`` — the gateway tree then shows the forward
        without fabricated evaluation spans.
        """
        try:
            envelope = json.loads(response)
        except (UnicodeDecodeError, json.JSONDecodeError):
            return response, None
        if not isinstance(envelope, dict):
            return response, None
        replica_trace = envelope.get("trace")
        tree = tracer.tree()
        if replica_trace is not None and forward is not None:
            try:
                child = TraceTree.from_dict(replica_trace)
            except (KeyError, TypeError, AttributeError):
                child = None
            if child is not None:
                # the replica ships its daemon span (service.request) and
                # the worker's span (evaluate) as *siblings* — they overlap
                # in wall time, so nesting both under the forward span
                # would break the tree's containment invariant.  Restore
                # physical containment here: the worker's evaluate goes
                # inside the daemon's pool.evaluate span, the daemon span
                # goes under the forward (the finished span shares its
                # children list with its node in the tree, so extending
                # grafts in place).
                daemon_roots = [r for r in child.roots
                                if r.name == "service.request"]
                worker_roots = [r for r in child.roots
                                if r.name != "service.request"]
                pool_node = None
                for root in daemon_roots:
                    pool_node = _find_node(root, "pool.evaluate")
                    if pool_node is not None:
                        break
                if pool_node is not None:
                    pool_node.children.extend(worker_roots)
                    forward.children.extend(daemon_roots)
                else:
                    forward.children.extend(child.roots)
                for name, value in child.counters.items():
                    tree.counters[name] = tree.counters.get(name, 0) + value
        envelope["trace"] = tree.to_dict()
        return json.dumps(envelope).encode(), envelope["trace"]

    # ------------------------------------------------------------------
    # batch streaming
    # ------------------------------------------------------------------
    async def stream(self, request: ParsedRequest,
                     writer: asyncio.StreamWriter) -> bool:
        """``POST /batch``: stream the answers back as NDJSON."""
        path = request.target.partition("?")[0].rstrip("/")
        if request.method != "POST" or path != "/batch":
            return False
        await self._stream_batch(writer, request.body)
        return True

    async def _stream_batch(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        try:
            payload = json.loads(body.decode() or "{}")
            spec = normalize_batch(payload, self.config.batch_window)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self.metrics.count("bad_requests")
            await respond(writer, 400,
                          error_payload("batch", "BadJSON", str(exc)),
                          close=True)
            return
        except RequestError as exc:
            self.metrics.count("bad_requests")
            await respond(writer, exc.status,
                          error_payload("batch", "RequestError", str(exc)),
                          close=True)
            return

        self.metrics.count("batch.batches")
        started = time.perf_counter()
        await start_chunked_response(writer)
        window = asyncio.Semaphore(spec.window)
        lines: asyncio.Queue = asyncio.Queue(maxsize=spec.window)
        inflight = 0
        counts = Counter()

        async def run_item(item: BatchItem) -> None:
            nonlocal inflight
            async with window:
                inflight += 1
                self.metrics.peak("batch.inflight_peak", value=inflight)
                try:
                    line = await self._batch_line(spec.endpoint, item)
                except asyncio.CancelledError:
                    raise
                except Exception as exc:
                    # every task must queue exactly one line — a swallowed
                    # exception here would leave the consumer awaiting a
                    # line that never comes and stall the whole stream
                    line = {"index": item.index, "name": item.name,
                            "key": item.key, "ok": False,
                            "error": {"type": type(exc).__name__,
                                      "message": str(exc)}}
                finally:
                    inflight -= 1
                # the semaphore is held until the line is *queued* into a
                # window-bounded queue: a client that stops reading stalls
                # the queue, which stalls the semaphore, which stops new
                # replica work — backpressure, not buffering
                await lines.put(line)

        invalid = [item for item in spec.items if item.error is not None]
        tasks = [asyncio.ensure_future(run_item(item))
                 for item in spec.valid_items]
        try:
            for item in invalid:
                counts["invalid"] += 1
                await write_chunk(writer, _ndjson({
                    "index": item.index, "ok": False,
                    "error": {"type": "RequestError", "message": item.error},
                }))
            for _ in range(len(tasks)):
                line = await lines.get()
                counts["ok" if line.get("ok") else "error"] += 1
                await write_chunk(writer, _ndjson(line))
            summary = {
                "batch": {
                    "endpoint": spec.endpoint,
                    "total": len(spec.items),
                    "ok": counts["ok"],
                    "errors": counts["error"] + counts["invalid"],
                    "window": spec.window,
                    "elapsed_seconds": time.perf_counter() - started,
                }
            }
            await write_chunk(writer, _ndjson(summary))
            await finish_chunked_response(writer)
        except (ConnectionError, OSError):
            # client went away mid-stream: stop paying for its batch
            for task in tasks:
                task.cancel()
            raise
        finally:
            for status, n in counts.items():
                self.metrics.count("batch.items", status, by=n)
            for task in tasks:
                if not task.done():
                    task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

    async def _batch_line(self, endpoint: str, item: BatchItem) -> dict:
        """One item through the normal routed path, as its NDJSON line."""
        status, response, _ = await self.route_task(
            endpoint, json.dumps(item.payload).encode(), item.key,
            item.task.get("timeout"),
        )
        try:
            envelope = json.loads(response)
        except json.JSONDecodeError:
            envelope = {"ok": False, "error": {
                "type": "BadReplicaResponse",
                "message": f"replica answered {status} with a non-JSON body",
            }}
        envelope["index"] = item.index
        envelope.setdefault("key", item.key)
        envelope["name"] = item.name
        if status >= 400:
            envelope["ok"] = False
        return envelope

    async def probe_loop(self) -> None:
        """Background membership maintenance (see module docstring)."""
        interval = self.config.probe_interval_seconds
        if interval <= 0:
            return
        while not self.shutdown_event.is_set():
            await self.membership.probe_all()
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self.shutdown_event.wait(), interval)


def _find_node(node, name: str):
    """Depth-first search for the first span named ``name``."""
    if node.name == name:
        return node
    for child in node.children:
        found = _find_node(child, name)
        if found is not None:
            return found
    return None


def _error_bytes(endpoint: str, error_type: str, message: str) -> bytes:
    return json.dumps(error_payload(endpoint, error_type, message)).encode()


def _ndjson(payload: dict) -> bytes:
    return json.dumps(payload).encode() + b"\n"


async def run_gateway(
    config: GatewayConfig,
    host: str = "127.0.0.1",
    port: int = 8786,
    ready=None,
    announce: bool = True,
) -> None:
    """Run the gateway until ``/shutdown`` or SIGINT/SIGTERM.

    Mirrors :func:`repro.service.app.run_server`: ``port=0`` binds an
    ephemeral port announced on stdout as ``repro-gateway listening on
    http://HOST:PORT``.
    """
    await serve(ClusterGateway(config), host, port, ready=ready,
                announce=announce)


class GatewayThread(ServerThread):
    """An in-process gateway on a background thread (tests, benches).

    >>> with GatewayThread(GatewayConfig(replicas=((h1, p1), (h2, p2)))) \\
    ...         as (host, port):
    ...     ServiceClient(host, port).health()
    """

    app_class = ClusterGateway

    @property
    def gateway(self) -> ClusterGateway | None:
        return self.app
