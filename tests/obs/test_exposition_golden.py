"""Golden ``/metrics`` of the daemon and the gateway, JSON and Prometheus.

Each snapshot below is built deterministically through the real metric
store; the rendered text must match the committed ``.prom`` golden file
byte for byte, and the snapshot must equal the committed ``.json``
golden file as parsed JSON (key order aside).  The full daemon snapshot fills every conditional family
(ladder escalations, audit, breakers, faults, delta drift, optimize
improvement, GC); the bare one pins the defaults of an idle daemon.
"""

from pathlib import Path

import json

import pytest

from repro.cluster.gateway import GATEWAY_FAMILIES, render_gateway_prometheus
from repro.cluster.membership import MembershipController
from repro.obs import MetricStore, parse_prometheus_text, render_prometheus
from repro.obs.audit import AccuracyAuditor
from repro.obs.prometheus import SERVICE_FAMILIES
from repro.resilience.breaker import CircuitBreaker
from repro.service.metrics import ServiceMetrics

GOLDEN = Path(__file__).parent / "golden"


class _Clock:
    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


def daemon_bare_snapshot() -> dict:
    return MetricStore(SERVICE_FAMILIES).snapshot({
        "uptime_seconds": 0.0, "breakers": {}, "cache": {}, "workers.jobs": 1,
    })


def daemon_full_snapshot() -> dict:
    clock = _Clock()
    store = MetricStore(SERVICE_FAMILIES)
    metrics = ServiceMetrics(store)
    for endpoint, status, seconds in [
        ("advise", "ok", 0.004), ("advise", "ok", 1.7), ("predict", "ok", 0.2),
        ("predict", "error", 0.03), ("classify", "degraded", 0.001),
        ("sweep", "ok", 12.0), ("delta", "error", 0.002),
    ]:
        store.count("requests", endpoint, status)
        store.observe("latency_seconds", endpoint, value=seconds)
    store.count("evaluations", "predict", by=3)
    store.count("evaluations", "advise")
    store.count("coalesced", "advise", by=2)
    store.count("cache_served", "advise", "memory", by=4)
    store.count("cache_served", "predict", "disk")
    store.count("degraded", "classify", "breaker_open")
    store.count("degraded", "predict", "pool_saturated", by=2)
    metrics.observe_ladder("predict", 0, 0)
    metrics.observe_ladder("predict", 1, 1)
    metrics.observe_ladder("advise", 2, 2)
    metrics.observe_ladder("advise", 3, 3)
    metrics.observe_optimize({
        "strategies": [{"label": "rcm", "status": "winner"},
                       {"label": "degree_sort", "status": "screened"},
                       {"label": "identity", "status": "pruned"}],
        "confirmation": {"improvement": 0.125},
        "fidelity": {"ladder_answers": {"0": 1, "1": 4, "2": 2}},
    })
    metrics.observe_delta("advise", {"path": "incremental", "drift": 0.01})
    metrics.observe_delta("predict", {"path": "tier0", "drift": 0.3})
    metrics.observe_delta("advise", {"path": "fallback", "reason": "budget"})
    metrics.observe_gc({"deleted": 3, "deleted_bytes": 4096, "quarantined": 1})
    store.count("faults_injected", "pool.submit:error", by=2)
    store.count("faults_injected", "cache.disk_read:corrupt")
    metrics.observe_phases("predict", {"evaluate": 0.25,
                                       "method_b.stack_pass": 0.5})
    metrics.observe_phases("advise", {"ladder.tier1": 0.125})
    metrics.enqueue()
    metrics.enqueue()
    metrics.dequeue()
    metrics.worker_started()
    store.count("workers.restarts")
    store.count("workers.timeouts", by=2)

    tripped = CircuitBreaker(failure_threshold=2, recovery_seconds=30.0,
                             clock=clock)
    tripped.record_failure()
    tripped.record_failure()
    tripped.allow()
    recovered = CircuitBreaker(failure_threshold=1, recovery_seconds=5.0,
                               clock=clock)
    recovered.record_failure()
    clock.now += 10.0
    recovered.allow()
    recovered.record_success()
    breakers = {"predict": tripped, "advise": recovered,
                "classify": CircuitBreaker(clock=clock)}

    auditor = AccuracyAuditor(0.5, budget_seconds=10.0, backlog_limit=1)
    auditor.record("1", 0, 0.01, 0.05)
    auditor.record("1", 0, 0.2, 0.05)
    auditor.record("3a", 1, 0.02, 0.1)
    auditor.offer({"key": "a"})
    auditor.offer({"key": "b"})
    auditor.spend(1.25)

    cache_stats = {
        "memory": {"hits": 7, "misses": 3, "evictions": 1, "expirations": 2,
                   "entries": 5, "bytes": 2048, "max_bytes": 1 << 20,
                   "ttl_seconds": 300.0},
        "disk": {"hits": 2, "misses": 4, "corrupt": 1, "enabled": True},
    }
    clock.now += 2.5
    return store.snapshot({
        "uptime_seconds": clock.now - 100.0,
        "breakers": {endpoint: breaker.snapshot()
                     for endpoint, breaker in sorted(breakers.items())},
        "cache": cache_stats,
        "workers.jobs": 2,
        "audit": auditor.snapshot(),
    })


def gateway_snapshot() -> dict:
    clock = _Clock()
    membership = MembershipController(
        [("127.0.0.1", 9001), ("127.0.0.1", 9002)], clock=clock)
    membership.mark_down("127.0.0.1:9002", "ConnectionRefusedError")
    clock.now += 3.0
    membership.observe_probe(membership.replica_for("127.0.0.1:9002"),
                             {"ok": True})
    membership.mark_down("127.0.0.1:9001", "TimeoutError")
    store = MetricStore(GATEWAY_FAMILIES)
    store.count("routed", "advise", "127.0.0.1:9001", by=5)
    store.count("routed", "advise", "127.0.0.1:9002", by=3)
    store.count("routed", "predict", "127.0.0.1:9002")
    store.count("failovers", by=2)
    store.count("delta_retargets")
    store.count("exhausted")
    store.count("no_replicas")
    store.count("forward_connections", "opened", by=3)
    store.count("forward_connections", "reused", by=7)
    store.count("bad_requests", by=2)
    store.count("batch.batches", by=2)
    store.count("batch.items", "ok", by=6)
    store.count("batch.items", "error")
    store.count("batch.items", "invalid")
    store.peak("batch.inflight_peak", value=3)
    for endpoint, seconds in [("advise", 0.002), ("advise", 0.04),
                              ("predict", 0.9)]:
        store.observe("latency_seconds", endpoint, value=seconds)
    # uptime is wall clock: pinned for the golden
    return store.snapshot({"uptime_seconds": 42.5,
                           "membership": membership.snapshot()})


CASES = {
    "daemon_bare.prom": lambda: render_prometheus(daemon_bare_snapshot()),
    "daemon_full.prom": lambda: render_prometheus(daemon_full_snapshot()),
    "gateway.prom": lambda: render_gateway_prometheus(gateway_snapshot()),
}


@pytest.mark.parametrize("golden", sorted(CASES))
def test_exposition_matches_golden_bytes(golden):
    text = CASES[golden]()
    assert text.encode() == (GOLDEN / golden).read_bytes()
    parse_prometheus_text(text)  # and it stays valid exposition


JSON_CASES = {
    "daemon_bare.json": daemon_bare_snapshot,
    "daemon_full.json": daemon_full_snapshot,
    "gateway.json": gateway_snapshot,
}


def _canonical(value) -> str:
    # sorted keys: key order may differ, but an int turning into a float
    # (or any other value change) must not
    return json.dumps(value, sort_keys=True)


@pytest.mark.parametrize("golden", sorted(JSON_CASES))
def test_json_snapshot_matches_golden(golden):
    snapshot = json.loads(json.dumps(JSON_CASES[golden]()))
    expected = json.loads((GOLDEN / golden).read_text())
    assert _canonical(snapshot) == _canonical(expected)
