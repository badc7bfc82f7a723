"""The traced run: each op is sent once over HTTP and then replayed
in-process layer by layer, with the :class:`~ledger.Ledger` recording.

Per op, on the same inputs as the untraced run:

1. the HTTP request (client -> [gateway ->] daemon): the op's wall time
   (evaluating requests carry ``"trace": true``, so the response brings
   the daemon worker's own span tree back);
2. ``service.client.encode``: building and JSON-encoding the request
   body, and decoding the response;
3. ``service.app.handle``: ``LocalityService.handle_request`` on an
   in-process service (ServiceConfig defaults); normalize, request key,
   cache, registry and serialization are recorded inside it;
4. ``service.worker.evaluate``: the daemon worker's ``evaluate`` time
   from that span tree; ``matrix_from_task`` (the worker's matrix
   rebuild) is timed by running ``worker.evaluate(task)`` in-process;
5. ``service.worker.model``: the direct library call on the
   benchmark's own matrix, with every stack-pass and model layer inside
   it; then the same call once more with the wrappers removed, which
   gives the tracing overhead.

Residual layers are differences of measured spans: HTTP transport (wall
minus encode minus the daemon-side time, which is handle with its pool
evaluation swapped for the daemon worker's), pool hop (handle minus what
handle recorded minus its pool worker's evaluate: queue wait plus pickle
IPC), worker overhead (evaluate minus model minus rebuild) and gateway hop
(gateway wall minus direct-to-owner wall).  What remains unattributed is
the model call's own time outside every named layer, plus the noise
between the separately timed executions.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import time
from collections import OrderedDict

import numpy as np

from repro.analysis.report import canonical_json
from repro.cluster.ring import HashRing
from repro.delta import engine as delta_engine
from repro.service import worker
from repro.service.app import LocalityService, ServiceConfig
from repro.service.client import ServiceClient
from repro.service.protocol import derive_delta_task, normalize_delta, normalize_request

import reference
from ledger import Ledger
from workloads import CLIENT_TIMEOUT, Record, timed

#: (metric, unit, better) of every per-layer metric, in report order.
#: ``leaf`` marks the rows whose sum, plus the unattributed remainder,
#: is the op's wall time.
PER_LAYER = (
    ("service.client.encode_ms", "ms", "lower", True),
    ("cluster.gateway.hop_ms", "ms", "lower", True),
    ("cluster.ring.owner_ms", "ms", "lower", False),
    ("cluster.direct_p50_ms", "ms", "lower", False),
    ("service.httpd.transport_ms", "ms", "lower", True),
    ("service.app.handle_ms", "ms", "lower", False),
    ("service.protocol.normalize_ms", "ms", "lower", True),
    ("service.protocol.request_key_ms", "ms", "lower", True),
    ("service.protocol.derive_ms", "ms", "lower", True),
    ("service.cache.get_ms", "ms", "lower", True),
    ("service.cache.put_ms", "ms", "lower", True),
    ("analysis.report.canonical_json_ms", "ms", "lower", True),
    ("service.registry.get_ms", "ms", "lower", True),
    ("service.registry.put_ms", "ms", "lower", True),
    ("service.pool.hop_ms", "ms", "lower", True),
    ("service.worker.evaluate_ms", "ms", "lower", False),
    ("service.protocol.matrix_from_task_ms", "ms", "lower", True),
    ("service.worker.overhead_ms", "ms", "lower", True),
    ("service.worker.model_ms", "ms", "lower", False),
    ("core.trace_build_ms", "ms", "lower", True),
    ("parallel.interleave_ms", "ms", "lower", True),
    ("reuse.stack_pass_ms", "ms", "lower", False),
    ("reuse.compute_prev_ms", "ms", "lower", True),
    ("reuse.dominance_ms", "ms", "lower", True),
    ("reuse.profile_build_ms", "ms", "lower", True),
    ("core.advisor_ms", "ms", "lower", True),
    ("core.method_a_ms", "ms", "lower", True),
    ("cachesim.simulate_ms", "ms", "lower", True),
    ("ladder.answer_ms", "ms", "lower", False),
    ("ladder.self_ms", "ms", "lower", True),
    ("delta.evaluate_ms", "ms", "lower", False),
    ("delta.engine_self_ms", "ms", "lower", True),
    ("delta.rebuild_ms", "ms", "lower", True),
    ("delta.matrix_apply_ms", "ms", "lower", True),
    ("delta.state_patch_ms", "ms", "lower", True),
    ("delta.state_capture_ms", "ms", "lower", True),
    ("bench.op_wall_ms", "ms", "lower", False),
    ("bench.unattributed_ms", "ms", "lower", False),
    ("reuse.references", "count", "lower", False),
    ("reuse.references_per_s", "1/s", "higher", False),
    ("ladder.tier0_share", "ratio", "higher", False),
    ("ladder.tier1_share", "ratio", "higher", False),
    ("ladder.tier2_share", "ratio", "lower", False),
    ("service.cache.memory_hit_ratio", "ratio", "higher", False),
    ("cluster.gateway.failovers", "count", "lower", False),
    ("delta.incremental_ratio", "ratio", "higher", False),
    ("delta.state_warm_ratio", "ratio", "higher", False),
    ("bench.unattributed_ratio", "ratio", "lower", False),
    ("bench.trace_overhead_ratio", "ratio", "lower", False),
    ("bench.traced_ops", "count", "higher", False),
)

#: model-internal spans -> the leaf metric their self time lands in
_MODEL_SELF = {
    "core.trace_build": "core.trace_build_ms",
    "parallel.interleave": "parallel.interleave_ms",
    "reuse.compute_prev": "reuse.compute_prev_ms",
    "reuse.stack_pass": "reuse.dominance_ms",
    "reuse.profile_build": "reuse.profile_build_ms",
    "core.advisor": "core.advisor_ms",
    "core.method_a": "core.method_a_ms",
    "cachesim.simulate": "cachesim.simulate_ms",
    "ladder.answer": "ladder.self_ms",
    "delta.evaluate": "delta.engine_self_ms",
    "service.protocol.matrix_from_task": "delta.rebuild_ms",
    "delta.matrix_apply": "delta.matrix_apply_ms",
    "delta.state_patch": "delta.state_patch_ms",
    "delta.state_capture": "delta.state_capture_ms",
}
#: daemon-side spans recorded inside handle -> their metric
_HANDLE_SELF = {
    "service.protocol.normalize": "service.protocol.normalize_ms",
    "service.protocol.request_key": "service.protocol.request_key_ms",
    "service.protocol.derive": "service.protocol.derive_ms",
    "service.cache.get": "service.cache.get_ms",
    "service.cache.put": "service.cache.put_ms",
    "analysis.report.canonical_json": "analysis.report.canonical_json_ms",
    "service.registry.get": "service.registry.get_ms",
    "service.registry.put": "service.registry.put_ms",
}


def worker_seconds(envelope: dict) -> float:
    """Seconds the pool worker spent in ``evaluate``, read off the span
    tree a ``"trace": true`` response carries (0 when nothing ran)."""
    roots = (envelope.get("trace") or {}).get("roots", [])
    return sum(root["seconds"] for root in roots if root["name"] == "evaluate")


class TracedRun:
    """In-process replay of one workload's ops next to the real servers."""

    def __init__(self, scratch) -> None:
        self.ledger = Ledger()
        self.loop = asyncio.new_event_loop()
        config = ServiceConfig(cache_dir=str(scratch / "inprocess-cache"))
        self.service = self.loop.run_until_complete(self._service(config))
        self.delta_budget = config.delta_budget
        self.ops: list[dict] = []
        self.envelopes: list[dict] = []
        self.mismatches = 0
        self.failed = 0

    @staticmethod
    async def _service(config: ServiceConfig) -> LocalityService:
        return LocalityService(config)

    def close(self) -> None:
        self.ledger.remove()
        self.service.close()
        self.loop.close()

    # -- the in-process pieces -----------------------------------------
    def _encode(self, body_fn, envelope: dict) -> str:
        response = json.dumps(envelope)
        with self.ledger.recording(), self.ledger.span("service.client.encode"):
            text = json.dumps(body_fn())
            json.loads(response)
        return text

    def _handle(self, path: str, text: str) -> dict:
        request = self.service.handle_request("POST", path, text.encode())
        status, payload, _ = self.loop.run_until_complete(request)
        if status != 200:
            raise RuntimeError(f"in-process {path} answered {status}: {payload}")
        return payload

    def _handle_traced(self, path: str, body: dict) -> float:
        """Handle one evaluating request in-process; returns the seconds
        its pool worker spent in ``evaluate``, so that the pool hop is
        measured on the same execution."""
        text = json.dumps(dict(body, trace=True))
        with self.ledger.recording(), self.ledger.span("service.app.handle"):
            payload = self._handle(path, text)
        return worker_seconds(payload)

    def _evaluate(self, task: dict, envelope: dict, pooled: float) -> dict:
        """The worker layer of one op: ``evaluate`` as the daemon's worker
        timed it (the request carried the trace flag), and the matrix
        rebuild inside ``worker.evaluate`` run in-process (its model
        layers are discarded here; the direct model call measures them)."""
        with self.ledger.recording(), self.ledger.span("service.worker.evaluate"):
            worker.evaluate(task)
        inclusive, _, _ = self.ledger.take()
        rebuild = inclusive.get("service.protocol.matrix_from_task", 0.0)
        if task["matrix"]["kind"] == "delta":
            # the delta engine rebuilds inside the model (delta.rebuild_ms)
            rebuild = 0.0
        return {"evaluate": worker_seconds(envelope), "rebuild": rebuild,
                "pooled": pooled}

    def _model(self, call) -> tuple[object, float]:
        with self.ledger.recording(), self.ledger.span("service.worker.model"):
            answer = call()
        with self.ledger.plain():
            started = time.perf_counter()
            call()
            plain = time.perf_counter() - started
        return answer, plain

    # -- one op per workload kind --------------------------------------
    def model_op(self, record: Record, op) -> None:
        """A cold request (cold_mix ops and delta_chain base posts)."""
        env = record.envelope
        body = op.payload()
        self._encode(lambda: body, env)
        pooled = self._handle_traced(f"/{op.endpoint}", body)
        task = normalize_request(op.endpoint, body)
        matrix = reference.op_matrix(op)
        spans = self.ledger.take()
        evaluated = self._evaluate(task, env, pooled)
        answer, plain = self._model(lambda: reference.direct(
            op.endpoint, op.threads, matrix, op.accuracy, op.max_tier))
        self.mismatches += not reference.matches(answer, env, op.endpoint)
        self._finish(record, spans, evaluated, plain)

    def delta_op(self, record: Record) -> None:
        env = record.envelope
        ctx = record.context
        body = {"base": env["delta"]["base"],
                "delta": {"inserts": ctx["inserts"], "deletes": ctx["deletes"]}}
        self._encode(lambda: body, env)
        pooled = self._handle_traced("/delta", body)
        stored = self.service.registry.get(body["base"])
        task = derive_delta_task(stored, normalize_delta(body), self.delta_budget)
        spans = self.ledger.take()
        # mirror the daemon: a step its worker priced from a cold state is
        # priced cold here too (the engine's reuse-state LRU is process
        # state; every replay below starts from the same snapshot)
        if env["delta"].get("state") == "cold":
            delta_engine._state_cache.clear()
        snapshot = OrderedDict(delta_engine._state_cache)

        def restored(call):
            def run():
                delta_engine._state_cache.clear()
                delta_engine._state_cache.update(snapshot)
                return call()
            return run

        evaluated = restored(lambda: self._evaluate(task, env, pooled))()
        (answer, _, _), plain = self._model(
            restored(lambda: delta_engine.evaluate_delta_task(task)))
        self.mismatches += canonical_json(answer) != canonical_json(env["result"])
        self._finish(record, spans, evaluated, plain)

    def warm_op(self, record: Record, op, direct: dict, ring: HashRing) -> None:
        env = record.envelope
        with self.ledger.recording():
            node = ring.owner(env["key"])
        direct_record = timed(op.kind, lambda: op.send(direct[node]))
        if direct_record.envelope is None or direct_record.envelope.get("cached") != "memory":
            self.failed += 1
        text = self._encode(op.payload, env)
        with self.ledger.recording(), self.ledger.span("service.app.handle"):
            self._handle(f"/{op.endpoint}", text)
        spans = self.ledger.take()
        with self.ledger.plain():
            started = time.perf_counter()
            self._handle(f"/{op.endpoint}", text)
            plain = time.perf_counter() - started
        self._finish(record, spans, {"evaluate": 0.0, "rebuild": 0.0, "pooled": 0.0}, plain,
                     direct=direct_record.seconds)

    def _finish(self, record: Record, spans: tuple, evaluated: dict,
                plain: float, direct: float | None = None) -> None:
        """Fold one op's spans into its per-layer values (seconds)."""
        inclusive, self_time, _ = spans
        model_incl, model_self, references = self.ledger.take()
        wall = record.seconds
        handle = inclusive["service.app.handle"]
        values = {
            "service.client.encode_ms": inclusive["service.client.encode"],
            "service.app.handle_ms": handle,
            "service.worker.evaluate_ms": evaluated["evaluate"],
            "service.protocol.matrix_from_task_ms": evaluated["rebuild"],
            "bench.op_wall_ms": wall,
        }
        for span, metric in _HANDLE_SELF.items():
            values[metric] = self_time.get(span, 0.0)
        if record.kind.startswith("step:"):
            # a delta request's key derivation: normalize_delta,
            # derive_delta_task and both request_key calls
            values["service.protocol.derive_ms"] += values.pop(
                "service.protocol.request_key_ms")
        values["service.pool.hop_ms"] = (self_time["service.app.handle"]
                                         - evaluated["pooled"])
        front = wall
        if direct is not None:
            values["cluster.gateway.hop_ms"] = wall - direct
            values["cluster.direct_ms"] = direct
            values["cluster.ring.owner_ms"] = self_time.get("cluster.ring.owner", 0.0)
            front = direct
        # daemon-side time: the in-process handle with its own pool
        # evaluation swapped for the daemon worker's
        daemon_side = handle - evaluated["pooled"] + evaluated["evaluate"]
        values["service.httpd.transport_ms"] = (
            front - values["service.client.encode_ms"] - daemon_side)
        if "service.worker.model" in model_incl:
            model = model_incl["service.worker.model"]
            values["service.worker.model_ms"] = model
            values["service.worker.overhead_ms"] = (
                evaluated["evaluate"] - model - evaluated["rebuild"])
            for span, metric in _MODEL_SELF.items():
                values[metric] = values.get(metric, 0.0) + model_self.get(span, 0.0)
            values["reuse.stack_pass_ms"] = model_incl.get("reuse.stack_pass", 0.0)
            values["ladder.answer_ms"] = model_incl.get("ladder.answer", 0.0)
            values["delta.evaluate_ms"] = model_incl.get("delta.evaluate", 0.0)
            values["model_traced"] = model
        else:
            # no evaluation (warm hits): the overhead pair is the handle call
            values["model_traced"] = handle
        values["model_plain"] = plain
        values["references"] = references
        self.ops.append(values)
        self.envelopes.append(record.envelope)

    # -- aggregation -----------------------------------------------------
    def metrics(self, failovers: int = 0) -> dict:
        ops = self.ops
        count = max(len(ops), 1)

        def mean_ms(metric: str) -> float:
            return 1000.0 * sum(op.get(metric, 0.0) for op in ops) / count

        out = {}
        for metric, unit, _, _ in PER_LAYER:
            if unit == "ms":
                out[metric] = mean_ms(metric)
        directs = [op["cluster.direct_ms"] for op in ops if "cluster.direct_ms" in op]
        out["cluster.direct_p50_ms"] = 1000.0 * statistics.median(directs) if directs else 0.0
        leaves = [m for m, unit, _, leaf in PER_LAYER if leaf]
        out["bench.unattributed_ms"] = out["bench.op_wall_ms"] - sum(out[m] for m in leaves)
        out["bench.unattributed_ratio"] = (out["bench.unattributed_ms"] / out["bench.op_wall_ms"]
                                           if out["bench.op_wall_ms"] else 0.0)
        traced = sum(op["model_traced"] for op in ops)
        plain = sum(op["model_plain"] for op in ops)
        out["bench.trace_overhead_ratio"] = traced / plain - 1.0 if plain else 0.0
        references = sum(op["references"] for op in ops)
        stack_seconds = sum(op.get("reuse.stack_pass_ms", 0.0) for op in ops)
        out["reuse.references"] = references / count
        out["reuse.references_per_s"] = references / stack_seconds if stack_seconds else 0.0
        tiers = [env["fidelity"]["tier"] for env in self.envelopes if env.get("fidelity")]
        for tier in (0, 1, 2):
            out[f"ladder.tier{tier}_share"] = (tiers.count(tier) / len(tiers)) if tiers else 0.0
        cached = [env.get("cached") for env in self.envelopes]
        out["service.cache.memory_hit_ratio"] = cached.count("memory") / count
        out["cluster.gateway.failovers"] = failovers
        steps = [env["delta"] for env in self.envelopes if env.get("delta")]
        incremental = [d for d in steps if d.get("path") == "incremental"]
        out["delta.incremental_ratio"] = len(incremental) / len(steps) if steps else 0.0
        out["delta.state_warm_ratio"] = (
            sum(d.get("state") == "warm" for d in incremental) / len(incremental)
            if incremental else 0.0)
        out["bench.traced_ops"] = len(ops)
        return out


def run_traced(workload, scratch, seconds: float, max_seconds: float) -> tuple[dict, int, int]:
    """Traced run of one workload (already set up); returns the per-layer
    metrics, ops attempted and ops failed."""
    traced = TracedRun(scratch)
    client = ServiceClient(*workload.address, timeout=CLIENT_TIMEOUT)
    failovers = 0
    try:
        traced.ledger.install()
        deadline = time.perf_counter() + seconds
        hard_stop = time.perf_counter() + max_seconds
        if workload.name == "warm_gateway":
            replay_warm(traced, workload, client, deadline, hard_stop)
            failovers = client.metrics()["failovers"]
        elif workload.name == "cold_mix":
            replay_cold(traced, workload, client, deadline, hard_stop)
        else:
            replay_delta(traced, workload, client, deadline, hard_stop)
        attempted = len(traced.ops) + traced.failed
        return traced.metrics(failovers), attempted, traced.failed + traced.mismatches
    finally:
        client.close()
        traced.close()


def replay_cold(traced: TracedRun, workload, client, deadline, hard_stop) -> None:
    """The cold ops in order, past the deadline until every op kind was
    traced twice (a sweep comes once per 12 ops)."""
    kinds: dict = {}
    for op in workload.inputs.ops:
        now = time.perf_counter()
        covered = len(kinds) == 4 and min(kinds.values()) >= 2
        if now > hard_stop or (now > deadline and covered):
            return
        record = timed(op.kind, lambda: op.send(client, trace=True))
        if record.envelope is None:
            traced.failed += 1
            continue
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
        traced.model_op(record, op)


def replay_warm(traced: TracedRun, workload, client, deadline, hard_stop) -> None:
    """Warm hits until the deadline, each also sent straight to its owner;
    the in-process service is primed with the same population first."""
    for op in workload.population:
        traced._handle(f"/{op.endpoint}", json.dumps(op.payload()))
    ring = HashRing(workload.replica_nodes)
    direct = {}
    for node in workload.replica_nodes:
        host, _, port = node.rpartition(":")
        direct[node] = ServiceClient(host, int(port), timeout=CLIENT_TIMEOUT)
    try:
        for index in workload.schedule:
            now = time.perf_counter()
            if now > hard_stop or now > deadline:
                break
            op = workload.population[index]
            record = timed(op.kind, lambda: op.send(client))
            if record.envelope is None:
                traced.failed += 1
                continue
            traced.mismatches += (canonical_json(record.envelope["result"])
                                  != workload.primed[index])
            traced.warm_op(record, op, direct, ring)
    finally:
        for each in direct.values():
            each.close()


def replay_delta(traced: TracedRun, workload, client, deadline, hard_stop) -> None:
    """Bases first (round-robin over the four kinds), then one step on
    each chain in turn, so every base kind is covered early."""
    from inputs import DELTA_STEPS, Op, PatternTracker

    rng = np.random.default_rng([workload.seed, 7])
    chains = []
    for base in workload.clients_ops[0].bases[0]:
        if time.perf_counter() > hard_stop:
            break
        op = Op(base.endpoint, base.threads, matrix=base.matrix, kind=f"base:{base.label}")
        record = timed(op.kind, lambda: op.send(client, trace=True), {"base": base})
        if record.envelope is None:
            traced.failed += 1
            continue
        traced.model_op(record, op)
        chains.append([base, PatternTracker(base.matrix), record.envelope["key"]])
    for step in range(DELTA_STEPS):
        for chain in chains:
            now = time.perf_counter()
            if now > hard_stop or (now > deadline and step >= 2):
                return
            base, tracker, key = chain
            inserts, deletes = tracker.edits(rng, base.band)
            record = timed(f"step:{base.label}",
                           lambda: client.delta(key, inserts=inserts, deletes=deletes,
                                                trace=True),
                           {"base": base, "inserts": inserts, "deletes": deletes})
            if record.envelope is None:
                traced.failed += 1
                continue
            chain[2] = record.envelope["key"]
            traced.delta_op(record)


def ledger_table(metrics: dict) -> list[str]:
    """The per-layer ledger as text: mean ms per op and share of wall."""
    wall = metrics["bench.op_wall_ms"] or 1.0
    lines = [f"{'layer':40s} {'value':>14s} {'share':>8s}"]
    for metric, unit, _, leaf in PER_LAYER:
        value = metrics[metric]
        share = f"{100.0 * value / wall:7.2f}%" if unit == "ms" else ""
        mark = "*" if leaf else " "
        lines.append(f"{mark}{metric:39s} {value:14.4f} {share:>8s}")
    lines.append(f" attributed to named layers (* rows): "
                 f"{100.0 * (1.0 - metrics['bench.unattributed_ratio']):.2f}% of op wall")
    lines.append(f" tracing overhead: {100.0 * metrics['bench.trace_overhead_ratio']:.2f}%")
    return lines
