"""The advisor daemon: asyncio JSON-over-HTTP on the sweep engine's pool.

Request lifecycle::

    HTTP request -> normalize (protocol) -> request_key
        -> two-tier cache lookup (memory LRU, then .repro_cache disk)
        -> in-flight coalescing (duplicate keys share one future)
        -> process-pool evaluation (bounded by --jobs, per-request
           timeout, structured fault isolation)
        -> cache fill + JSON response

Everything CPU-bound runs in pool workers via
:func:`repro.service.worker.evaluate`; the event loop only parses,
hashes, and shuttles bytes, so the daemon stays responsive while a
multi-second sweep is in flight.  A worker that raises returns a
structured error; a worker that *dies* breaks the pool, which is
rebuilt, counted in ``/metrics``, and surfaced as a 500 — subsequent
requests succeed.

The HTTP layer is the server shell in :mod:`repro.service.httpd`
(HTTP/1.1 with keep-alive, shared with the cluster gateway): this
module adds only the daemon's ``POST`` routes, its ``/healthz`` and
``/metrics`` content, and its background loops (disk-cache GC and the
accuracy audit).

Cluster hooks (see :mod:`repro.cluster`): ``POST /cache/peek`` answers
"do *you* have this key?" from the cache tiers only — no pool, no
breaker — and a request carrying a ``"peer"`` hint (attached by the
gateway after a membership change) asks that previous owner over the
same endpoint before paying for an evaluation.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from pathlib import Path

from ..analysis.report import canonical_json, jsonable
from ..core.analytic import stream_misses
from ..core.classification import classify
from ..experiments.common import cache_entry_path
from ..experiments.pool import fork_executor
from ..ladder.calibration import DEFAULT_CALIBRATION
from ..ladder.engine import fidelity_payload, has_ladder_flags, tier2_apriori_bound
from ..ladder.tier0 import answer_task, dims_from_task, num_cmgs
from ..obs import events as obs_events
from ..obs.audit import AccuracyAuditor, compare_results
from ..obs.events import EventLog
from ..obs.prometheus import SERVICE_FAMILIES, MetricStore, render_prometheus
from ..obs.traces import TraceBuffer
from ..obs.tracer import Tracer
from ..obs.tree import TraceTree
from ..resilience import faults
from ..resilience.breaker import CircuitBreaker
from ..resilience.faults import FaultPlan
from .cache import TieredResultCache, gc_sweep
from .httpd import (
    HttpApp,
    RequestScope,
    ServerThread,
    request_json,
    request_span,
    serve,
)
from .metrics import ServiceMetrics
from ..spmv.sector_policy import SectorPolicy
from .protocol import (
    DELTA_BASE_ENDPOINTS,
    ENDPOINTS,
    RequestError,
    derive_delta_task,
    keyed_form,
    matrix_name,
    normalize_delta,
    normalize_request,
    request_key,
    setup_from_task,
)
from .registry import TaskRegistry
from .worker import evaluate


@dataclass(frozen=True)
class ServiceConfig:
    """Daemon tunables.

    Each field has one ``python -m repro.service`` flag (docs/OPERATIONS.md
    §1), except ``max_body_bytes``, which is set in-process only.
    """

    jobs: int = 2
    cache_dir: str | None = ".repro_cache"
    memory_max_bytes: int = 64 * 2**20
    request_timeout: float = 120.0
    max_body_bytes: int = 64 * 2**20
    #: accept the ``"faults"`` request flag (chaos testing); off by
    #: default — a production daemon refuses injected faults with a 403
    allow_fault_injection: bool = False
    #: a daemon-wide ambient :class:`~repro.resilience.FaultPlan`,
    #: inherited across ``fork`` by the pool workers (requires
    #: ``allow_fault_injection``)
    fault_plan: FaultPlan | None = None
    #: consecutive 5xx evaluation failures that trip an endpoint's breaker
    breaker_failure_threshold: int = 5
    #: seconds an open breaker refuses the pool before probing again
    breaker_recovery_seconds: float = 30.0
    #: queue depth at which new evaluations degrade instead of queueing
    #: (None disables natural-saturation degradation)
    saturation_queue_depth: int | None = 64
    #: accuracy SLO injected into classify/predict/advise requests that
    #: carry none (None keeps the legacy fixed-fidelity behaviour)
    default_accuracy: float | None = None
    #: fidelity-ladder tier cap injected into requests that carry none
    default_max_tier: int | None = None
    #: largest ``budget_seconds`` an ``/optimize`` request may ask for —
    #: admission control for the most expensive endpoint (400 above it)
    max_optimize_budget_seconds: float = 120.0
    #: seconds between periodic disk-cache GC sweeps (None disables the
    #: daemon task; ``python -m repro.service.cache --gc`` still works)
    gc_interval_seconds: float | None = None
    #: GC: delete disk entries older than this many seconds
    gc_max_age_seconds: float | None = None
    #: GC: then delete oldest entries until the cache dir fits
    gc_max_bytes: int | None = None
    #: structured JSON-lines event log (``repro.obs.events/v1``); None
    #: disables event logging entirely
    event_log_path: str | None = None
    #: fraction of delivered tier-0/1 ladder answers shadow-audited at
    #: tier 2 off the hot path (0 disables the continuous accuracy audit)
    audit_rate: float = 0.0
    #: ceiling on cumulative pool seconds the auditor may spend (None
    #: leaves the audit bounded only by its rate and backlog)
    audit_budget_seconds: float | None = None
    #: seed of the deterministic audit sampling hash — replicas sharing a
    #: seed agree on which request keys are audited
    audit_seed: int = 0
    #: patch-work ceiling of the incremental delta engine (summed dirty
    #: reuse-window elements); past it a ``POST /delta`` evaluation falls
    #: back to full re-evaluation.  0 forces the fallback always.
    delta_budget: int = 65_536

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be positive")
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if self.breaker_failure_threshold < 1:
            raise ValueError("breaker_failure_threshold must be positive")
        if self.breaker_recovery_seconds <= 0:
            raise ValueError("breaker_recovery_seconds must be positive")
        if self.saturation_queue_depth is not None and self.saturation_queue_depth < 1:
            raise ValueError("saturation_queue_depth must be positive (or None)")
        if self.fault_plan is not None and not self.allow_fault_injection:
            raise ValueError("fault_plan requires allow_fault_injection")
        if self.default_accuracy is not None and self.default_accuracy <= 0:
            raise ValueError("default_accuracy must be positive")
        if self.default_max_tier is not None and not 0 <= self.default_max_tier <= 3:
            raise ValueError("default_max_tier must be between 0 and 3")
        if self.max_optimize_budget_seconds <= 0:
            raise ValueError("max_optimize_budget_seconds must be positive")
        if self.gc_interval_seconds is not None and self.gc_interval_seconds <= 0:
            raise ValueError("gc_interval_seconds must be positive (or None)")
        if self.gc_max_age_seconds is not None and self.gc_max_age_seconds < 0:
            raise ValueError("gc_max_age_seconds must be non-negative")
        if self.gc_max_bytes is not None and self.gc_max_bytes < 0:
            raise ValueError("gc_max_bytes must be non-negative")
        if (self.gc_interval_seconds is not None
                and self.gc_max_age_seconds is None
                and self.gc_max_bytes is None):
            raise ValueError("gc_interval_seconds needs gc_max_age_seconds "
                             "and/or gc_max_bytes (nothing to collect otherwise)")
        if not 0.0 <= self.audit_rate <= 1.0:
            raise ValueError("audit_rate must be in [0, 1]")
        if self.audit_budget_seconds is not None and self.audit_budget_seconds <= 0:
            raise ValueError("audit_budget_seconds must be positive")
        if self.audit_seed < 0:
            raise ValueError("audit_seed must be non-negative")
        if self.delta_budget < 0:
            raise ValueError("delta_budget must be non-negative")


#: The stored answers of one request key: ``tier -> key suffix``.  A
#: fresh tier-*t* answer fills the tier-*t* entry.  Tier 2 is
#: byte-identical to a plain answer, so plain and ladder requests share
#: the plain key; a ladder request reads it only when the tier-2 a-priori
#: bound meets its SLO, and only its disk read is a fault site.  Tier 3
#: is a different payload (``"method": "sim"``, simulated counts) under
#: ``<key>.t3``, read by ladder requests only.  Tier-0/1 answers are
#: never stored — recomputing beats caching and they must never shadow
#: an exact entry — and are offered to the accuracy audit instead.
STORED_TIERS = {2: "", 3: ".t3"}

#: ceiling on one ``/cache/peek`` round trip to a peer replica: a slow
#: or dead peer never costs more than this before the replica evaluates
#: the request itself
PEER_TIMEOUT_SECONDS = 5.0


class _EvaluationError(Exception):
    """A failed evaluation, carrying the HTTP status and structured detail."""

    def __init__(self, status: int, detail: dict) -> None:
        super().__init__(detail.get("message", ""))
        self.status = status
        self.detail = detail


class _DegradedService(Exception):
    """The pool cannot take this evaluation; answer analytically or shed.

    Raised by admission control (breaker open, saturation — injected or
    natural) and caught in :meth:`LocalityService._finish_task`, which
    either answers from Method B's closed forms
    (:func:`repro.ladder.tier0.answer_task`) or, when no
    analytic surrogate exists (``sweep``, ``optimize``), responds 503 with
    a retry hint.
    """

    def __init__(self, reason: str, retry_after_seconds: float = 0.0) -> None:
        super().__init__(reason)
        self.reason = reason
        self.retry_after_seconds = retry_after_seconds


#: Worker-side exception types that indicate a bad request, not a bad
#: server.  DeltaError covers edit batches that are well-formed but
#: inapplicable to their base pattern (inserting an existing edge,
#: deleting an absent one) — only detectable at apply time.
_CLIENT_ERRORS = frozenset({"ValueError", "TypeError", "KeyError",
                            "DeltaError"})


class LocalityService(HttpApp):
    """The daemon's request handling: cache, coalescing, pool."""

    role = "service"
    post_routes = frozenset(ENDPOINTS) | {"cache/peek", "delta"}
    trace_root = "service.request"
    render_metrics = staticmethod(render_prometheus)

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.cache = TieredResultCache(config.cache_dir,
                                       max_bytes=config.memory_max_bytes)
        self.started = time.monotonic()
        self.metrics = MetricStore(SERVICE_FAMILIES)
        self.meter = ServiceMetrics(self.metrics)
        self.breakers = {
            endpoint: CircuitBreaker(
                failure_threshold=config.breaker_failure_threshold,
                recovery_seconds=config.breaker_recovery_seconds,
                on_transition=self._breaker_observer(endpoint),
            )
            for endpoint in ENDPOINTS
        }
        self.traces = TraceBuffer()
        # stored base tasks POST /delta patches against (same dir as the
        # result cache: a GC'd base 404s and the client re-submits once)
        self.registry = TaskRegistry(config.cache_dir)
        self.auditor = (
            AccuracyAuditor(config.audit_rate, seed=config.audit_seed,
                            budget_seconds=config.audit_budget_seconds)
            if config.audit_rate > 0 else None
        )
        # ambient state inherited across fork must be installed before the
        # first worker is spawned: the daemon-wide fault plan and the
        # structured event log (workers append to the same file under
        # O_APPEND; see repro.obs.events); close() restores both
        self._previous_plan = (
            faults.install(config.fault_plan)
            if config.fault_plan is not None else None
        )
        self._event_log = None
        self._previous_event_log = None
        if config.event_log_path is not None:
            self._event_log = EventLog(config.event_log_path, role="service")
            self._previous_event_log = obs_events.install(self._event_log)
        self._executor = fork_executor(config.jobs)
        self._slots = asyncio.Semaphore(config.jobs)
        self._inflight: dict[str, asyncio.Future] = {}
        self.shutdown_event = asyncio.Event()

    # ------------------------------------------------------------------
    # routing (the shared routes live in HttpApp.handle_request)
    # ------------------------------------------------------------------
    async def post(self, target: str, payload: object,
                   scope: RequestScope) -> tuple[int, dict]:
        """One ``POST`` to a model endpoint, ``/delta`` or ``/cache/peek``."""
        if target == "cache/peek":
            return self._handle_cache_peek(payload)
        # the handler holds the only reference to the parsed body, so a
        # model request frees its number lists once its task holds arrays
        handler = (self._handle_delta(payload, scope) if target == "delta"
                   else self._handle_model(target, payload, scope))
        del payload
        return await handler

    def observe(self, scope: RequestScope) -> None:
        """The terminal metric and ``request`` event of one ``POST``
        (peer cache peeks are counted by ``cache_peek`` instead)."""
        if scope.endpoint == "cache/peek":
            return
        self.metrics.count(
            "requests", scope.endpoint,
            scope.outcome if scope.outcome in ("ok", "degraded") else "error")
        self.metrics.observe("latency_seconds", scope.endpoint,
                             value=scope.seconds)
        obs_events.emit("request", trace_id=scope.trace_id,
                        endpoint=scope.endpoint, status=scope.outcome,
                        seconds=scope.seconds, key=scope.key, **scope.fields)

    def health(self) -> dict:
        health = {"ok": True, "status": "healthy"}
        if self.auditor is not None:
            health["accuracy"] = self.auditor.status()
        return health

    def metrics_snapshot(self) -> dict:
        views = {
            "uptime_seconds": time.monotonic() - self.started,
            "breakers": {endpoint: breaker.snapshot() for endpoint, breaker
                         in sorted(self.breakers.items())},
            "cache": self.cache.stats(),
            "workers.jobs": self.config.jobs,
        }
        if self.auditor is not None:
            views["audit"] = self.auditor.snapshot()
        return self.metrics.snapshot(views)

    def background(self) -> list:
        jobs = []
        if (self.config.gc_interval_seconds is not None
                and self.config.cache_dir is not None):
            jobs.append(self.gc_loop())
        if self.auditor is not None:
            jobs.append(self.audit_loop())
        return jobs

    def start_fields(self) -> dict:
        return {"jobs": self.config.jobs}

    # ------------------------------------------------------------------
    # cluster hooks
    # ------------------------------------------------------------------
    def _handle_cache_peek(self, payload: object) -> tuple[int, dict]:
        """``POST /cache/peek {"task": <normalized task>}`` — cache tiers
        only, no pool, no breaker, no evaluation.

        The caller is another replica holding a normalized task whose key
        this replica owned before a membership change; it sends the task
        verbatim and we recompute the key, so a peek can never answer a
        different question than the one being asked.  Only the plain-key
        entry is consulted (the one plain and tier-2 ladder answers
        share); a miss just means the caller evaluates — exactly what it
        would have done anyway.
        """
        if not isinstance(payload, dict) or not isinstance(payload.get("task"), dict):
            raise RequestError("expected a JSON object with a 'task' object")
        task = payload["task"]
        if task.get("endpoint") not in ENDPOINTS:
            raise RequestError(f"unknown endpoint {task.get('endpoint')!r}")
        try:
            key = request_key(task)
            disk_path, _ = self._disk_entry(task, key)
        except Exception as exc:  # noqa: BLE001 - a bad task is the caller's bug
            raise RequestError(str(exc)) from None
        result, tier = self.cache.get(key, disk_path)
        if result is None:
            self.metrics.count("cache_peek", "miss")
            return 200, {"ok": True, "found": False, "key": key}
        self.metrics.count("cache_peek", "hit")
        return 200, {"ok": True, "found": True, "key": key, "tier": tier,
                     "result": result}

    async def _peer_fill(
        self, endpoint: str, task: dict, key: str, peer: dict
    ) -> dict | None:
        """Ask the key's previous ring owner for its cached answer.

        Best-effort by construction: any failure — dead peer, timeout,
        malformed reply — returns None and the replica evaluates as if no
        hint existed.  The hint is routing metadata, never correctness.
        """
        try:
            status, payload = await request_json(
                peer["host"], peer["port"], "POST", "/cache/peek",
                # jsonable: an inline matrix rides the task as arrays
                {"task": jsonable(task)},
                timeout=PEER_TIMEOUT_SECONDS,
            )
        except (OSError, ValueError, ConnectionError, asyncio.TimeoutError,
                asyncio.IncompleteReadError):
            self.metrics.count("peer_fill", "error")
            return None
        if status != 200 or not payload.get("found"):
            self.metrics.count("peer_fill", "miss")
            return None
        result = payload.get("result")
        if not isinstance(result, dict):
            self.metrics.count("peer_fill", "error")
            return None
        self.metrics.count("peer_fill", "hit")
        return result

    async def gc_once(self) -> dict:
        """One disk-cache GC sweep off the event loop; folds into /metrics."""
        if self.cache.cache_dir is None:
            return {}
        loop = asyncio.get_running_loop()
        config = self.config
        stats = await loop.run_in_executor(
            None,
            lambda: gc_sweep(self.cache.cache_dir,
                             max_age_seconds=config.gc_max_age_seconds,
                             max_bytes=config.gc_max_bytes),
        )
        self.meter.observe_gc(stats)
        obs_events.emit("gc.sweep", **{k: v for k, v in stats.items()
                                       if isinstance(v, (int, float))})
        return stats

    async def gc_loop(self) -> None:
        """Periodic GC (``--gc-interval``); cancelled at shutdown."""
        while True:
            await asyncio.sleep(self.config.gc_interval_seconds)
            await self.gc_once()

    # ------------------------------------------------------------------
    # model endpoints
    # ------------------------------------------------------------------
    async def _handle_model(self, endpoint: str, payload: object,
                            scope: RequestScope) -> tuple[int, dict]:
        if (isinstance(payload, dict) and "faults" in payload
                and not self.config.allow_fault_injection):
            raise RequestError(
                "fault injection is disabled; start the daemon with "
                "--allow-fault-injection to accept 'faults' flags",
                status=403,
            )
        task = normalize_request(endpoint, payload)
        # an inline matrix's lists stay garbage for the whole evaluation
        # otherwise (a base request holds megabytes)
        del payload
        if endpoint not in ("sweep", "optimize"):
            # optimize is excluded: its screening tiers are fixed by the
            # search and its accuracy (confirmation SLO) is part of the
            # cached search config
            self._ladder_defaults(task)
        if endpoint == "optimize":
            cap = self.config.max_optimize_budget_seconds
            _require_budget(task["budget_seconds"], cap)
        plan = (faults.FaultPlan.from_dict(task["faults"])
                if "faults" in task else None)
        # record the computation-defining task so a later POST /delta can
        # patch against this key (chaos requests are excluded: their
        # perturbed answers are never cached either)
        key = self._keyed(task, register=(
            endpoint in DELTA_BASE_ENDPOINTS and plan is None))
        # the gateway's warm-cache hint is routing metadata: excluded
        # from the key, stripped before the task reaches a worker
        peer = task.pop("peer", None)
        return await self._finish_task(scope, endpoint, task, key, peer, plan)

    async def _handle_delta(self, payload: object,
                            scope: RequestScope) -> tuple[int, dict]:
        """``POST /delta``: patch a stored request with one edit batch.

        The body references a base request by its cache key; the daemon
        recovers the stored task from the registry, **revalidates** it
        (the recomputed key must match — a tampered or truncated record
        404s/409s instead of silently patching the wrong base), derives
        the edited task with the batch appended to its delta chain, and
        resolves it through the ordinary cache/coalesce/evaluate
        machinery under the *derived* key.  The derived task is
        registered too, so the key this response returns is itself a
        valid base — warm entries chain instead of going cold.
        """
        normalized = normalize_delta(payload)
        base_key = normalized["base"]
        stored = self.registry.get(base_key)
        if stored is None:
            raise RequestError(
                f"unknown base key {base_key!r}: not in the stored-task "
                "registry (never seen, or evicted/GC'd) — submit the "
                "full request once and retry the delta",
                status=404,
            )
        if request_key(stored) != base_key:
            raise RequestError(
                f"stored record for base key {base_key!r} failed "
                "revalidation (its recomputed key differs) — submit "
                "the full request once and retry the delta",
                status=409,
            )
        endpoint = stored.get("endpoint")
        if endpoint not in DELTA_BASE_ENDPOINTS:
            raise RequestError(
                f"a {endpoint!r} result cannot take deltas; the base "
                f"must be one of: {', '.join(DELTA_BASE_ENDPOINTS)}",
                status=400,
            )
        task = derive_delta_task(stored, normalized, self.config.delta_budget)
        self._ladder_defaults(task)
        key = self._keyed(task, register=True)
        envelope = {"delta": {
            "base": base_key,
            "chain_length": len(task["matrix"]["batches"]),
        }}
        return await self._finish_task(scope, endpoint, task, key, None, None,
                                       envelope=envelope)

    def _keyed(self, task: dict, register: bool) -> str:
        """The task's request key, registering its keyed form under it
        when asked: the key's own encoding is the registry record, so an
        inline matrix is encoded once for both."""
        if not register:
            return request_key(task)
        keyed = keyed_form(task)
        key, record = request_key(keyed, with_record=True)
        self.registry.put(key, keyed, record)
        return key

    def _ladder_defaults(self, task: dict) -> None:
        """Fill in the daemon-wide ladder defaults the request left unsaid.

        They don't enter the cache key: every tier answers the same
        question.
        """
        if "accuracy" not in task and self.config.default_accuracy is not None:
            task["accuracy"] = self.config.default_accuracy
        if "max_tier" not in task and self.config.default_max_tier is not None:
            task["max_tier"] = self.config.default_max_tier

    async def _finish_task(
        self, scope: RequestScope, endpoint: str, task: dict, key: str,
        peer: dict | None, plan: faults.FaultPlan | None,
        envelope: dict | None = None,
    ) -> tuple[int, dict]:
        """Resolve a normalized task and build its response envelope.

        The shared tail of ``_handle_model`` and ``_handle_delta``: the
        resolve pipeline inside the request's trace, degraded/error
        handling, and the wire envelope.  ``envelope`` entries are
        merged into every response (success or not); the delta metadata
        of a fresh delta evaluation is folded into the envelope's
        ``"delta"`` object.
        """
        extra = envelope or {}
        scope.endpoint, scope.key = endpoint, key
        try:
            with scope.traced(task):
                result, cached, trace, fidelity, meta = await self._resolve(
                    endpoint, task, key, plan, peer, tracer=scope.tracer
                )
        except _DegradedService as exc:
            result = self._degraded_result(task)
            if result is None:
                # sweep and optimize have no analytic surrogate (sweep's
                # whole point is the stack-distance measurement)
                scope.mark("unavailable", reason=exc.reason)
                return 503, {"ok": False, "endpoint": endpoint, "key": key,
                             "error": {
                                 "type": "ServiceUnavailable",
                                 "message": "evaluation pool unavailable "
                                            f"({exc.reason}) and no analytic "
                                            "fallback applies",
                                 "reason": exc.reason,
                                 "retry_after_seconds": exc.retry_after_seconds,
                             }} | extra
            scope.mark("degraded", reason=exc.reason)
            self.metrics.count("degraded", endpoint, exc.reason)
            # degraded answers are approximations: never cached, clearly
            # marked, and "cached" is null so clients can tell them apart
            return 200, {"ok": True, "endpoint": endpoint, "key": key,
                         "cached": None, "degraded": True,
                         "degraded_reason": exc.reason,
                         "result": result} | extra
        except _EvaluationError as exc:
            scope.mark("error", error=exc.detail.get("type"))
            detail = dict(exc.detail)
            detail.setdefault("type", "EvaluationError")
            return exc.status, {"ok": False, "endpoint": endpoint, "key": key,
                                "error": detail} | extra
        merged = None
        if scope.tracer is not None:
            # the envelope trace: this hop's service.request root next to
            # the worker's evaluate root — linked by span-id attrs, merged
            # into one forest so the gateway can graft it whole.  With no
            # evaluation (cache tier, coalesced, peer fill) /debug/traces
            # still keeps this hop's spans — cache.lookup marks the
            # serving tier — but no evaluate span is fabricated
            tree = scope.tracer.tree()
            if trace is not None:
                tree = TraceTree.merge([tree, TraceTree.from_dict(trace)])
            scope.tree = tree.to_dict()
            merged = scope.tree if trace is not None else None
        scope.mark("ok", cached=cached, tier=(fidelity or {}).get("tier"))
        if cached in ("memory", "disk"):
            self.metrics.count("cache_served", endpoint, cached)
        response = {"ok": True, "endpoint": endpoint, "key": key,
                    "cached": cached, "result": result} | extra
        if meta is not None:
            response.setdefault("delta", {}).update(meta)
        if fidelity is not None:
            response["fidelity"] = fidelity
        if task.get("trace"):
            # best-effort: null when the result came from a cache tier or
            # piggybacked on another request's in-flight evaluation
            response["trace"] = merged
        return 200, response

    async def _resolve(
        self,
        endpoint: str,
        task: dict,
        key: str,
        plan: faults.FaultPlan | None,
        peer: dict | None = None,
        tracer: Tracer | None = None,
    ) -> tuple[dict, str | None, dict | None, dict | None, dict | None]:
        """Resolve a key via a stored answer, coalescing, peer fill, or a
        fresh evaluation, under the :data:`STORED_TIERS` policy.

        Returns ``(result, cache_tier, span_tree, fidelity, delta)``; the
        span tree is only non-None for a fresh evaluation of a ``"trace":
        true`` task, fidelity only for ladder requests (``accuracy``/
        ``max_tier`` set) and optimize, and the delta metadata only for a
        fresh evaluation of a delta task — the envelope carries it, never
        the (byte-identical) cached result.

        Only plain requests coalesce or take a peer's answer: two ladder
        requests with different SLOs legitimately need different
        evaluations.  ``plan`` is the request's own fault plan (None for
        normal requests, which still consult the daemon-wide ambient plan
        at the parent-side sites).  A fault-carrying request may *read*
        the cache — that is how ``cache.disk_read`` corruption is
        exercised — but never writes it, never leads or joins a coalesced
        evaluation and never takes a peer's answer: its perturbed outcome
        must not leak into healthy responses.
        """
        ladder = endpoint != "optimize" and has_ladder_flags(task)
        chaos = plan is not None
        entries = {tier: (key + suffix, *self._disk_entry(task, key + suffix))
                   for tier, suffix in STORED_TIERS.items()
                   if ladder or tier == 2}
        with request_span(tracer, "cache.lookup") as sp:
            for tier, (entry_key, disk_path, _) in entries.items():
                bound = None
                if ladder and tier == 2 and task.get("accuracy") is not None:
                    bound = self._tier2_bound(task)
                    if bound > task["accuracy"]:
                        continue
                corrupt = (tier == 2 and disk_path is not None
                           and self._fire(plan, "cache.disk_read") is not None)
                result, where = self.cache.get(entry_key, disk_path,
                                               corrupt_read=corrupt)
                if where == "disk":
                    self.cache.promote(entry_key, canonical_json(result).encode())
                if result is not None:
                    # cache hits bypass admission control: they cost no
                    # pool slot, so an open breaker or a saturated queue
                    # does not refuse them
                    sp.annotate(tier=where)
                    return result, where, None, self._served_fidelity(
                        endpoint, task, result, tier if ladder else None,
                        bound), None
            sp.annotate(tier="miss")

        shared = not (ladder or chaos)
        pending = self._inflight.get(key) if shared else None
        if pending is not None:
            self.metrics.count("coalesced", endpoint)
            with request_span(tracer, "coalesce.wait"):
                result = await asyncio.shield(pending)
            return (result, "coalesced", None,
                    self._served_fidelity(endpoint, task, result), None)
        if peer is not None and not ladder:
            if chaos:
                self.metrics.count("peer_fill", "skipped")
            else:
                with request_span(tracer, "peer.fill", host=peer["host"],
                                  port=peer["port"]) as sp:
                    fetched = await self._peer_fill(endpoint, task, key, peer)
                    sp.annotate(outcome="hit" if fetched is not None else "miss")
                if fetched is not None:
                    # adopt the peer's answer into our own tiers so the
                    # next hit is local — this replica owns the key now
                    self._cache_write(fetched, *entries[2])
                    return (fetched, "peer", None,
                            self._served_fidelity(endpoint, task, fetched), None)

        payload = await self._run(endpoint, task, plan, tracer,
                                  lead=key if shared else None)
        result, fidelity = payload["result"], payload.get("fidelity")
        if endpoint == "optimize":
            # per-strategy outcomes, the predicted-improvement histogram
            # and the search's ladder answers
            self.meter.observe_optimize(result)
        answered = fidelity["tier"] if ladder else 2  # plain = tier 2
        if ladder:
            self.meter.observe_ladder(endpoint, answered,
                                      fidelity.get("escalations", 0))
        if not chaos:
            if answered in entries:
                self._cache_write(result, *entries[answered])
            elif answered in (0, 1):
                self._offer_audit(endpoint, task, key, answered, result)
        return result, None, payload.get("trace"), fidelity, payload.get("delta")

    def _cache_write(self, result: dict, key: str, disk_path: Path | None,
                     disk_format: str | None = None) -> None:
        self.cache.put(
            key,
            canonical_json(result).encode(),
            disk_path,
            # sweep records keep the store_record byte format so batch
            # sweeps and the daemon share one disk cache
            disk_text=json.dumps(result) if disk_format == "record" else None,
        )

    async def _run(self, endpoint: str, task: dict,
                   plan: faults.FaultPlan | None, tracer: Tracer | None,
                   lead: str | None = None) -> dict:
        """Admit, evaluate and account one fresh evaluation.

        ``lead`` is the key this evaluation leads for coalescing: once
        admitted it registers the in-flight future duplicate requests
        wait on.  Breaker accounting, per-phase metrics and delta
        metadata are recorded here for every evaluation.
        """
        await self._admit(endpoint, plan)
        breaker = self.breakers[endpoint]
        future = None
        if lead is not None:
            future = asyncio.get_running_loop().create_future()
            self._inflight[lead] = future
        try:
            payload = await self._evaluate(endpoint, task, tracer=tracer)
            breaker.record_success()
            if future is not None:
                future.set_result(payload["result"])
        except _EvaluationError as exc:
            # only server-side failures count against the breaker; a 4xx
            # means the machinery worked and the request was at fault
            if exc.status >= 500:
                breaker.record_failure()
            else:
                breaker.record_success()
            if future is not None:
                future.set_exception(exc)
                future.exception()  # mark retrieved even with no waiters
            raise
        finally:
            if future is not None:
                self._inflight.pop(lead, None)
        self.meter.observe_phases(endpoint, payload.get("phase_seconds", {}))
        meta = payload.get("delta")
        if meta is not None:
            self.meter.observe_delta(endpoint, meta)
        return payload

    def _tier2_bound(self, task: dict) -> float:
        """The tier-2 a-priori bound of a task (inf when indeterminable)."""
        try:
            setup = setup_from_task(task)
            return tier2_apriori_bound(task, setup.machine(), setup)
        except Exception:  # noqa: BLE001 - fall through to a fresh evaluation
            return float("inf")

    def _served_fidelity(self, endpoint: str, task: dict, result: dict,
                         tier: int | None = None,
                         bound: float | None = None) -> dict | None:
        """The envelope ``fidelity`` of a stored, coalesced or peer answer:
        a ladder request's stored ``tier`` against its SLO (tier 3 is
        exact), or an optimize result's inline search fidelity."""
        if tier is not None:
            if bound is None:
                bound = 0.0 if tier == 3 else self._tier2_bound(task)
            return fidelity_payload(tier, bound, task.get("accuracy"))
        if endpoint == "optimize" and isinstance(result, dict):
            return result.get("fidelity")
        return None

    # ------------------------------------------------------------------
    # continuous accuracy audit (--audit-rate)
    # ------------------------------------------------------------------
    def _offer_audit(self, endpoint: str, task: dict, key: str,
                     tier: int, result: dict) -> None:
        """Shadow-sample one freshly delivered tier-0/1 ladder answer.

        Deterministic by key (replicas with one seed agree on the sampled
        set), predict/advise only (classify is closed-form exact at every
        tier), and bounded: a full backlog or an exhausted time budget
        sheds the sample — the audit observes the service, it never
        becomes the service's problem.
        """
        auditor = self.auditor
        if (auditor is None or endpoint not in ("predict", "advise")
                or not auditor.should_sample(key)):
            return
        trace_id = (task.get("trace_context") or {}).get("trace_id")
        if auditor.offer({"endpoint": endpoint, "key": key, "tier": tier,
                          "task": keyed_form(task), "result": result,
                          "trace_id": trace_id}):
            obs_events.emit("audit.sample", trace_id=trace_id,
                            endpoint=endpoint, key=key, tier=tier)

    async def audit_loop(self, poll_seconds: float = 0.05) -> None:
        """Drain the audit backlog whenever the pool is idle.

        Politeness is the invariant: an audit evaluation is only
        submitted when no foreground request is queued and a pool slot
        is free, so ``--audit-rate`` never blocks the hot path — at worst
        a foreground burst briefly waits behind one in-flight audit
        evaluation, the same as behind any other request.
        """
        while self.auditor is not None:
            await asyncio.sleep(poll_seconds)
            if self.auditor.backlog == 0 or self.auditor.budget_exhausted:
                continue
            if (self.metrics.value("queue.depth") > 0
                    or self.metrics.value("workers.busy") >= self.config.jobs):
                continue
            item = self.auditor.pop()
            if item is not None:
                await self._audit_once(item)

    async def _audit_once(self, item: dict) -> None:
        """Re-answer one sampled delivery exactly and score the error.

        The reference pass is the keyed task as a plain request — the
        tier-2 ladder answer — served from the shared plain-key cache
        when a plain or escalated request already warmed
        it, and cached back otherwise (an audit evaluation is a normal
        exact answer; wasting it would be a shame).
        """
        auditor = self.auditor
        started = time.perf_counter()
        endpoint, key = item["endpoint"], item["key"]
        task = dict(item["task"])
        try:
            disk_path, _ = self._disk_entry(task, key)
            reference, _tier = self.cache.get(key, disk_path)
            if reference is None:
                payload = await self._evaluate(endpoint, task)
                reference = payload["result"]
                self._cache_write(reference, key, disk_path)
            setup = setup_from_task(task)
            machine = setup.machine()
            dims = dims_from_task(task, machine)
            floor = float(max(1, stream_misses(dims, machine.line_size).total))
            cmgs = num_cmgs(machine, setup.num_threads)
            cal = DEFAULT_CALIBRATION

            def policy_class(policy: dict) -> str:
                ways = SectorPolicy.from_dict(policy).l2_sector1_ways
                return classify(dims, machine, ways, cmgs).value

            tier = int(item["tier"])
            for cls_value, error in compare_results(
                    endpoint, item["result"], reference, floor, policy_class):
                bound = (cal.tier0_bound[cls_value] if tier == 0
                         else cal.tier1_apriori)
                auditor.record(cls_value, tier, error, bound)
                if error > bound:
                    obs_events.emit(
                        "audit.violation", trace_id=item.get("trace_id"),
                        endpoint=endpoint, key=key, tier=tier,
                        cls=cls_value, error=error, bound=bound)
            auditor.finish()
        except asyncio.CancelledError:
            raise
        except Exception:  # noqa: BLE001 - the audit never hurts the daemon
            auditor.record_failure()
        finally:
            auditor.spend(time.perf_counter() - started)

    def _breaker_observer(self, endpoint: str):
        """The per-endpoint breaker's transition hook -> event log."""
        def observe(previous: str, state: str) -> None:
            obs_events.emit("breaker.transition", endpoint=endpoint,
                            transition=f"{previous}->{state}")
        return observe

    def _fire(self, plan: faults.FaultPlan | None, site: str):
        """Fire a parent-side fault site against the request plan (or the
        ambient daemon plan when the request carries none) and count it."""
        rule = plan.fire(site) if plan is not None else faults.fire(site)
        if rule is not None:
            self.metrics.count("faults_injected", f"{site}:{rule.kind}")
            obs_events.emit("fault.injected", site=site, kind=rule.kind)
        return rule

    async def _admit(self, endpoint: str, plan: faults.FaultPlan | None) -> None:
        """Admission control in front of the pool.

        Raises :class:`_DegradedService` when the evaluation should not
        reach the pool: an injected or natural saturation, or an open
        circuit breaker.  Injected ``pool.submit`` faults of other kinds
        map to a structured 500 (``delay`` first stalls the admission) —
        a deterministic way for tests to trip a breaker without killing
        workers.
        """
        rule = self._fire(plan, "pool.submit")
        if rule is not None:
            if rule.kind == "saturate":
                raise _DegradedService("pool_saturated")
            if rule.kind == "delay":
                await asyncio.sleep(rule.delay_seconds)
            else:
                # counts against the breaker like any server-side failure,
                # so tests can trip it without killing workers
                self.breakers[endpoint].record_failure()
                raise _EvaluationError(500, {
                    "type": "FaultInjected",
                    "message": f"injected {rule.kind!r} fault at "
                               "site 'pool.submit'",
                })
        depth_limit = self.config.saturation_queue_depth
        if (depth_limit is not None
                and self.metrics.value("queue.depth") >= depth_limit):
            raise _DegradedService("pool_saturated")
        breaker = self.breakers[endpoint]
        if not breaker.allow():
            raise _DegradedService("breaker_open",
                                   breaker.retry_after_seconds())

    def _degraded_result(self, task: dict) -> dict | None:
        """The analytic degraded answer for a task, or None to shed (503).

        Uses Method B's closed forms (streaming-miss terms plus the
        ``s1``/``s2`` scaling factors) over the matrix *dimensions* only —
        no stack pass, no pool, event-loop-cheap.  Any surprise in the
        surrogate falls back to shedding rather than a dropped connection.
        """
        try:
            machine = setup_from_task(task).machine()
            return answer_task(task, machine, matrix_name(task))
        except Exception:  # noqa: BLE001 - degrade to 503, never to a hang
            return None

    def _disk_entry(self, task: dict, key: str) -> tuple[Path | None, str | None]:
        if self.cache.cache_dir is None:
            return None, None
        if task["endpoint"] == "sweep":
            setup = setup_from_task(task)
            return (
                cache_entry_path(self.cache.cache_dir, setup, matrix_name(task)),
                "record",
            )
        return self.cache.cache_dir / f"{key}.{task['endpoint']}.json", "canonical"

    async def _evaluate(self, endpoint: str, task: dict,
                        tracer: Tracer | None = None) -> dict:
        """One pool evaluation with queueing, timeout and fault isolation."""
        timeout = task.get("timeout", self.config.request_timeout)
        self.meter.enqueue()
        try:
            with request_span(tracer, "pool.queue"):
                await self._slots.acquire()
        finally:
            self.meter.dequeue()
        try:
            self.meter.worker_started()
            self.metrics.count("evaluations", endpoint)
            loop = asyncio.get_running_loop()
            try:
                with request_span(tracer, "pool.evaluate", endpoint=endpoint):
                    payload = await asyncio.wait_for(
                        loop.run_in_executor(self._executor, evaluate, task),
                        timeout,
                    )
            except asyncio.TimeoutError:
                # the worker cannot be interrupted; it is abandoned to
                # finish in the background (same policy as the sweep engine)
                self.metrics.count("workers.timeouts")
                raise _EvaluationError(504, {
                    "type": "TimeoutError",
                    "message": f"evaluation exceeded the {timeout:.3g}s budget",
                }) from None
            except BrokenExecutor:
                self.metrics.count("workers.restarts")
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = fork_executor(self.config.jobs)
                raise _EvaluationError(500, {
                    "type": "WorkerCrashed",
                    "message": "worker process died; pool restarted",
                }) from None
        finally:
            self.meter.worker_finished()
            self._slots.release()
        for site_kind, count in payload.pop("faults_fired", {}).items():
            self.metrics.count("faults_injected", site_kind, by=count)
        if "error" in payload:
            detail = payload["error"]
            status = 400 if detail.get("type") in _CLIENT_ERRORS else 500
            raise _EvaluationError(status, detail)
        return payload

    def close(self) -> None:
        # wait=True: letting idle workers exit here avoids a noisy atexit
        # race in concurrent.futures; abandoned (timed-out) workers are the
        # exception and at worst delay shutdown by their remaining runtime
        self._executor.shutdown(wait=True, cancel_futures=True)
        if self.config.fault_plan is not None:
            faults.install(self._previous_plan)
        if self._event_log is not None:
            obs_events.emit("service.stop")
            obs_events.install(self._previous_event_log)
            self._event_log.close()


def _require_budget(budget_seconds: float, cap: float) -> None:
    if budget_seconds > cap:
        raise RequestError(
            f"budget_seconds {budget_seconds:g} exceeds the daemon cap "
            f"{cap:g} (raise --max-optimize-budget to allow it)"
        )


async def run_server(
    config: ServiceConfig | None = None,
    host: str = "127.0.0.1",
    port: int = 8787,
    ready=None,
    announce: bool = True,
) -> None:
    """Run the daemon until ``/shutdown`` or SIGINT/SIGTERM.

    ``port=0`` binds an ephemeral port, announced on stdout as
    ``repro-service listening on http://HOST:PORT``; ``ready`` is
    called with ``(service, host, actual_port, loop)`` once bound (see
    :func:`repro.service.httpd.serve`).
    """
    await serve(LocalityService(config or ServiceConfig()), host, port,
                ready=ready, announce=announce)


class ServiceThread(ServerThread):
    """An in-process daemon on a background thread (tests, benches, tours).

    >>> with ServiceThread(ServiceConfig(jobs=1, cache_dir=None)) as (host, port):
    ...     ServiceClient(host, port).health()
    """

    app_class = LocalityService

    def __init__(
        self,
        config: ServiceConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__(config or ServiceConfig(), host, port)

    @property
    def service(self) -> LocalityService | None:
        return self.app
