"""The cluster gateway: consistent-hash routing over replica daemons.

One gateway fronts N advisor replicas (each a plain ``repro.service``
daemon).  Per model request it:

1. validates the payload with the *same* :func:`normalize_request` the
   replicas use (a 400 never costs a replica round trip) and computes
   the canonical sha256 request key;
2. consistent-hash routes the key to its owner replica
   (:class:`~repro.cluster.ring.HashRing` over the live membership);
3. relays the replica's response **verbatim** — routed answers are
   byte-identical to a direct single-daemon call;
4. on a connection failure, ejects the replica from the ring on the
   spot and fails over to the next node in the key's preference
   sequence — a replica killed mid-burst loses zero requests;
5. while a rebalance window is open, attaches a ``peer`` hint naming
   the key's *previous* owner, so the newly-responsible replica can
   warm-fill from the peer's cache (``/cache/peek``) instead of
   re-evaluating.

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
routes, its ``/healthz`` and ``/metrics`` content (the
:data:`GATEWAY_FAMILIES` table next to :class:`GatewayMetrics`) and the
membership probe loop.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterator

from ..obs import events as obs_events
from ..obs.context import TraceContext
from ..obs.events import DEFAULT_MAX_BYTES, EventLog
from ..obs.histogram import LatencyHistogram
from ..obs.prometheus import Family, Sample, render
from ..obs.traces import TraceBuffer
from ..obs.tracer import Tracer
from ..obs.tree import TraceTree
from ..service.httpd import (
    HttpApp,
    ParsedRequest,
    ServerThread,
    error_payload,
    finish_chunked_response,
    json_body,
    request_bytes,
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
from .ring import DEFAULT_VNODES

__all__ = ["GATEWAY_FAMILIES", "ClusterGateway", "GatewayConfig",
           "GatewayThread", "render_gateway_prometheus", "run_gateway"]


@dataclass(frozen=True)
class GatewayConfig:
    """Gateway tunables (CLI flags map 1:1)."""

    #: replica daemons as ``(host, port)`` pairs
    replicas: tuple = ()
    vnodes: int = DEFAULT_VNODES
    #: seconds between health/breaker probe rounds (0 disables the loop —
    #: tests drive probes by hand; data-path ejection still works)
    probe_interval_seconds: float = 2.0
    probe_timeout_seconds: float = 2.0
    #: consecutive failed probes that eject a replica
    fail_after: int = 1
    #: seconds after a membership change during which remapped keys carry
    #: a peer hint toward their previous owner's warm cache
    peer_window_seconds: float = 120.0
    #: attach peer hints at all (off = rebalances re-evaluate)
    peer_fill: bool = True
    #: per-forward ceiling; requests may carry their own smaller timeout
    forward_timeout_seconds: float = 300.0
    #: default and per-request in-flight window for /batch
    batch_window: int = 8
    max_body_bytes: int = 256 * 2**20
    #: structured JSON-lines event log (None disables)
    event_log_path: str | None = None
    event_log_max_bytes: int = DEFAULT_MAX_BYTES
    #: traced requests kept for ``GET /debug/traces``
    trace_buffer_size: int = 64

    def __post_init__(self) -> None:
        if not self.replicas:
            raise ValueError("at least one replica is required")
        if self.fail_after < 1:
            raise ValueError("fail_after must be positive")
        if self.batch_window < 1:
            raise ValueError("batch_window must be positive")
        if self.forward_timeout_seconds <= 0:
            raise ValueError("forward_timeout_seconds must be positive")
        if self.event_log_max_bytes < 4096:
            raise ValueError("event_log_max_bytes must be at least 4096")
        if self.trace_buffer_size < 1:
            raise ValueError("trace_buffer_size must be positive")


class GatewayMetrics:
    """Counters behind the gateway's ``/metrics``."""

    def __init__(self) -> None:
        self.started = time.monotonic()
        #: endpoint -> replica node -> forwards that got an HTTP response
        self.routed: dict[str, Counter] = defaultdict(Counter)
        #: forwards retried on the next preference node after a dead socket
        self.failovers = 0
        #: requests for which every candidate replica failed (the
        #: zero-lost-requests invariant asserts this stays 0 while any
        #: replica lives)
        self.exhausted = 0
        #: requests refused because the ring was empty
        self.no_replicas = 0
        #: delta forwards retried on another replica after a registry 404
        #: (a chained base key can hash away from its chain root's owner)
        self.delta_retargets = 0
        #: forwarded requests that carried a peer warm-fill hint
        self.peer_hints = 0
        self.bad_requests = 0
        self.batches = 0
        self.batch_items = Counter()      # status -> items
        self.batch_inflight_peak = 0
        self.latency: dict[str, LatencyHistogram] = defaultdict(LatencyHistogram)

    def snapshot(self, membership: MembershipController) -> dict:
        return {
            "uptime_seconds": time.monotonic() - self.started,
            "routed": {ep: dict(c) for ep, c in sorted(self.routed.items())},
            "failovers": self.failovers,
            "delta_retargets": self.delta_retargets,
            "exhausted": self.exhausted,
            "no_replicas": self.no_replicas,
            "peer_hints": self.peer_hints,
            "bad_requests": self.bad_requests,
            "batch": {
                "batches": self.batches,
                "items": dict(self.batch_items),
                "inflight_peak": self.batch_inflight_peak,
            },
            "latency_seconds": {
                ep: hist.snapshot() for ep, hist in sorted(self.latency.items())
            },
            "membership": membership.snapshot(),
        }


def _membership_changes(membership: dict) -> Iterator[Sample]:
    yield "", {"kind": "ejection"}, membership.get("ejections", 0)
    yield "", {"kind": "readmission"}, membership.get("readmissions", 0)


#: the gateway's exposition (``GET /metrics?format=prometheus``)
GATEWAY_FAMILIES = (
    Family("uptime_seconds", "gauge", "Gateway uptime.", "uptime_seconds",
           as_float=True),
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
    Family("peer_hints_total", "counter",
           "Forwards carrying a warm-cache peer hint.", "peer_hints"),
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
           "membership.replicas.*.healthy", ("replica",)),
    Family("membership_changes_total", "counter",
           "Ring membership transitions, by kind.",
           "membership", ("kind",), sampler=_membership_changes),
    Family("request_latency_seconds", "histogram",
           "Gateway round-trip latency by endpoint.",
           "latency_seconds.*", ("endpoint",)),
)


def render_gateway_prometheus(snapshot: dict, prefix: str = "repro_gateway") -> str:
    """Prometheus text exposition of the gateway snapshot."""
    return render(GATEWAY_FAMILIES, snapshot, prefix)


class ClusterGateway(HttpApp):
    """Gateway logic behind the server shell: route, fail over, stream."""

    role = "gateway"
    post_routes = frozenset(ENDPOINTS) | {"delta"}
    render_metrics = staticmethod(render_gateway_prometheus)

    def __init__(self, config: GatewayConfig) -> None:
        self.config = config
        self.membership = MembershipController(
            [tuple(r) for r in config.replicas],
            vnodes=config.vnodes,
            fail_after=config.fail_after,
            peer_window_seconds=config.peer_window_seconds,
        )
        self.metrics = GatewayMetrics()
        self.traces = TraceBuffer(config.trace_buffer_size)
        self._event_log = None
        self._previous_event_log = None
        if config.event_log_path is not None:
            self._event_log = EventLog(config.event_log_path,
                                       max_bytes=config.event_log_max_bytes,
                                       role="gateway")
            self._previous_event_log = obs_events.install(self._event_log)
        self.shutdown_event = asyncio.Event()

    def close(self) -> None:
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
        return self.metrics.snapshot(self.membership)

    def background(self) -> list:
        return [self.probe_loop()]

    def start_fields(self) -> dict:
        return {"replicas": len(self.config.replicas)}

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def route_task(
        self, endpoint: str, payload: dict, task: dict, key: str,
        tracer: Tracer | None = None, trace_id: str | None = None,
    ) -> tuple[int, bytes, object]:
        """Forward one validated request to its owner, failing over along
        the key's preference sequence; returns ``(status, response,
        winning_forward_span)`` — the span is the anchor the caller grafts
        the winning replica's trace under (None without a tracer)."""
        timeout = min(float(task.get("timeout", self.config.forward_timeout_seconds)),
                      self.config.forward_timeout_seconds) + 5.0
        tried: set[str] = set()
        while True:
            candidates = [r for r in self.membership.preference(key)
                          if r.node not in tried]
            if not candidates:
                if tried:
                    self.metrics.exhausted += 1
                    return 503, _error_bytes(
                        endpoint, "NoReplicaAnswered",
                        f"all {len(tried)} candidate replicas failed for "
                        f"key {key}",
                    ), None
                self.metrics.no_replicas += 1
                return 503, _error_bytes(
                    endpoint, "NoReplicas",
                    "no live replicas in the ring; retry after the next "
                    "probe round",
                ), None
            replica = candidates[0]
            body = json.dumps(payload).encode()
            if self.config.peer_fill:
                peer = self.membership.peer_for(key)
                if peer is not None and peer.node != replica.node:
                    hinted = dict(payload)
                    hinted["peer"] = {"host": peer.host, "port": peer.port}
                    body = json.dumps(hinted).encode()
                    self.metrics.peer_hints += 1
            forward = request_span(tracer, "gateway.forward", replica=replica.node)
            with forward:
                try:
                    status, response = await request_bytes(
                        replica.host, replica.port, "POST", f"/{endpoint}",
                        body, timeout,
                    )
                except (OSError, asyncio.TimeoutError,
                        asyncio.IncompleteReadError, ConnectionError,
                        ValueError) as exc:
                    # a dead socket ejects the replica immediately; the
                    # key's next preference node takes the retry
                    # (evaluations are idempotent and cached, so a
                    # duplicate is at most one extra cache lookup on the
                    # failed node's side)
                    forward.annotate(outcome="failover",
                                     error=type(exc).__name__)
                    tried.add(replica.node)
                    self.membership.mark_down(
                        replica.node, f"{type(exc).__name__}: {exc}"
                    )
                    self.metrics.failovers += 1
                    obs_events.emit("gateway.failover", trace_id=trace_id,
                                    endpoint=endpoint, key=key,
                                    replica=replica.node,
                                    error=type(exc).__name__)
                    continue
                forward.annotate(outcome="ok", status=status)
            if endpoint == "delta" and status == 404 and len(candidates) > 1:
                # the ring owner of a *derived* base key need not hold the
                # chain root's registry entry (the root request was routed
                # by its own key) — a registry 404 is only authoritative
                # once every live replica has said it.  Evaluations are
                # idempotent, so asking the rest costs one miss each.
                forward.annotate(outcome="retarget", status=status)
                tried.add(replica.node)
                self.metrics.delta_retargets += 1
                obs_events.emit("gateway.delta_retarget", trace_id=trace_id,
                                endpoint=endpoint, key=key,
                                replica=replica.node)
                continue
            self.metrics.routed[endpoint][replica.node] += 1
            return status, response, (forward if tracer is not None else None)

    async def post(
        self, endpoint: str, body: bytes, headers: dict[str, str],
    ) -> tuple[int, dict | bytes]:
        """Validate one model or ``/delta`` request and route it."""
        started = time.perf_counter()
        try:
            payload = json_body(body, headers)
        except ValueError as exc:
            self.metrics.bad_requests += 1
            return 400, error_payload(endpoint, "BadJSON", str(exc))
        try:
            if endpoint == "delta":
                # a delta must land on the replica that answered — and so
                # stores the task, warm cache entries and worker reuse
                # states of — its base request; that replica was chosen by
                # hashing the base key, so routing by the base key again
                # is exactly the affinity needed.  Base resolution
                # (404/409) stays with the replica that owns the registry.
                task = normalize_delta(payload)
                key = task["base"]
            else:
                task = normalize_request(endpoint, payload)
                key = request_key(task)
        except RequestError as exc:
            self.metrics.bad_requests += 1
            return exc.status, error_payload(endpoint, "RequestError", str(exc))
        # this gateway hop of the distributed trace: child of the caller's
        # context when one came in, a fresh root otherwise (minted when the
        # request wants a trace or an event log needs correlation)
        incoming = TraceContext.from_dict(task.get("trace_context"))
        ctx = None
        if incoming is not None:
            ctx = incoming.child()
        elif task.get("trace") or obs_events.get_log() is not None:
            ctx = TraceContext.new()
        forward_payload = payload
        if ctx is not None and isinstance(payload, dict):
            forward_payload = dict(payload)
            forward_payload["trace_context"] = ctx.to_dict()
        tracer = root = None
        token = None
        if task.get("trace") and ctx is not None:
            tracer = Tracer()
            token = self.traces.start(ctx.trace_id, endpoint)
            root = tracer.span(
                "gateway.route", endpoint=endpoint, key=key,
                trace_id=ctx.trace_id, span_id=ctx.span_id,
                parent_span_id=incoming.span_id if incoming else None,
            )
            root.__enter__()
        try:
            status, response, forward = await self.route_task(
                endpoint, forward_payload, task, key, tracer=tracer,
                trace_id=ctx.trace_id if ctx else None,
            )
        finally:
            if root is not None:
                root.__exit__(None, None, None)
        merged = None
        if tracer is not None:
            response = self._merge_forward_trace(tracer, forward, response)
            try:
                merged = json.loads(response).get("trace")
            except (ValueError, AttributeError):
                merged = None
        seconds = time.perf_counter() - started
        self.metrics.latency[endpoint].observe(seconds)
        if token is not None:
            self.traces.finish(token, seconds=seconds,
                               status="ok" if status < 400 else "error",
                               tree=merged)
        obs_events.emit("gateway.request",
                        trace_id=ctx.trace_id if ctx else None,
                        endpoint=endpoint, key=key, status=status,
                        seconds=seconds)
        return status, response

    def _merge_forward_trace(self, tracer: Tracer, forward,
                             response: bytes) -> bytes:
        """Rewrite a traced forward's envelope with ONE merged tree.

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
            return response
        if not isinstance(envelope, dict):
            return response
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
        return json.dumps(envelope).encode()

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
            self.metrics.bad_requests += 1
            await respond(writer, 400,
                          error_payload("batch", "BadJSON", str(exc)),
                          close=True)
            return
        except RequestError as exc:
            self.metrics.bad_requests += 1
            await respond(writer, exc.status,
                          error_payload("batch", "RequestError", str(exc)),
                          close=True)
            return

        self.metrics.batches += 1
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
                self.metrics.batch_inflight_peak = max(
                    self.metrics.batch_inflight_peak, inflight
                )
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
                self.metrics.batch_items[status] += n
            for task in tasks:
                if not task.done():
                    task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

    async def _batch_line(self, endpoint: str, item: BatchItem) -> dict:
        """One item through the normal routed path, as its NDJSON line."""
        status, response, _ = await self.route_task(
            endpoint, item.payload, item.task, item.key
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
            await self.membership.probe_all(self.config.probe_timeout_seconds)
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
