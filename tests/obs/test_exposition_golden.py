"""Golden Prometheus exposition of the daemon and the gateway.

Each snapshot below is built deterministically through the real metric
classes; the rendered text must match the committed golden file byte
for byte.  The full daemon snapshot fills every conditional family
(ladder escalations, audit, breakers, faults, delta drift, optimize
improvement, GC); the bare one pins the defaults of an idle daemon.
"""

from pathlib import Path

import pytest

from repro.cluster.gateway import GatewayMetrics, render_gateway_prometheus
from repro.cluster.membership import MembershipController
from repro.obs import parse_prometheus_text, render_prometheus
from repro.obs.audit import AccuracyAuditor
from repro.resilience.breaker import CircuitBreaker
from repro.service.metrics import ServiceMetrics

GOLDEN = Path(__file__).parent / "golden"


class _Clock:
    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


def daemon_bare_snapshot() -> dict:
    return ServiceMetrics(jobs=1, clock=_Clock()).snapshot({})


def daemon_full_snapshot() -> dict:
    clock = _Clock()
    metrics = ServiceMetrics(jobs=2, clock=clock)
    for endpoint, status, seconds in [
        ("advise", "ok", 0.004), ("advise", "ok", 1.7), ("predict", "ok", 0.2),
        ("predict", "error", 0.03), ("classify", "degraded", 0.001),
        ("sweep", "ok", 12.0), ("delta", "error", 0.002),
    ]:
        metrics.observe_request(endpoint, status, seconds)
    metrics.evaluations["predict"] += 3
    metrics.evaluations["advise"] += 1
    metrics.coalesced["advise"] += 2
    metrics.cache_served["advise"]["memory"] += 4
    metrics.cache_served["predict"]["disk"] += 1
    metrics.degraded["classify"]["breaker_open"] += 1
    metrics.degraded["predict"]["pool_saturated"] += 2
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
    metrics.peer_fill["hit"] += 2
    metrics.peer_fill["miss"] += 1
    metrics.cache_peek["hit"] += 1
    metrics.observe_gc({"deleted": 3, "deleted_bytes": 4096, "quarantined": 1})
    metrics.faults_injected["pool.submit:error"] += 2
    metrics.faults_injected["cache.disk_read:corrupt"] += 1
    metrics.observe_phases("predict", {"evaluate": 0.25,
                                       "method_b.stack_pass": 0.5})
    metrics.observe_phases("advise", {"ladder.tier1": 0.125})
    metrics.enqueue()
    metrics.enqueue()
    metrics.dequeue()
    metrics.worker_started()
    metrics.worker_restarts += 1
    metrics.timeouts += 2

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
    snapshot = metrics.snapshot(cache_stats, breakers)
    snapshot["audit"] = auditor.snapshot()
    return snapshot


def gateway_snapshot() -> dict:
    clock = _Clock()
    membership = MembershipController(
        [("127.0.0.1", 9001), ("127.0.0.1", 9002)], clock=clock)
    membership.mark_down("127.0.0.1:9002", "ConnectionRefusedError")
    clock.now += 3.0
    membership.observe_probe(membership.replica_for("127.0.0.1:9002"),
                             {"ok": True})
    membership.mark_down("127.0.0.1:9001", "TimeoutError")
    metrics = GatewayMetrics()
    metrics.routed["advise"]["127.0.0.1:9001"] += 5
    metrics.routed["advise"]["127.0.0.1:9002"] += 3
    metrics.routed["predict"]["127.0.0.1:9002"] += 1
    metrics.failovers += 2
    metrics.delta_retargets += 1
    metrics.exhausted += 1
    metrics.no_replicas += 1
    metrics.peer_hints += 4
    metrics.bad_requests += 2
    metrics.batches += 2
    metrics.batch_items["ok"] += 6
    metrics.batch_items["error"] += 1
    metrics.batch_items["invalid"] += 1
    metrics.batch_inflight_peak = 3
    for endpoint, seconds in [("advise", 0.002), ("advise", 0.04),
                              ("predict", 0.9)]:
        metrics.latency[endpoint].observe(seconds)
    snapshot = metrics.snapshot(membership)
    snapshot["uptime_seconds"] = 42.5  # wall clock: pinned for the golden
    return snapshot


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
