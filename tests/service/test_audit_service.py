"""The continuous accuracy audit and the structured event log, end to
end against a live daemon.

The audit daemon here samples every delivered tier-0/1 ladder answer
(``audit_rate=1.0``), re-answers off the hot path, and must report
observed error within the calibrated bound — the live falsification of
the fidelity ladder's central claim.
"""

import asyncio
import time

import pytest

from repro.obs import parse_prometheus_text
from repro.obs.events import validate_log_text
from repro.service import ServiceClient, ServiceConfig, ServiceThread
from repro.service.app import LocalityService

from .conftest import SETUP


@pytest.fixture(scope="module")
def audit_server(tmp_path_factory):
    base = tmp_path_factory.mktemp("audit_service")
    thread = ServiceThread(ServiceConfig(
        jobs=2, cache_dir=str(base / "cache"),
        audit_rate=1.0, audit_seed=0,
        event_log_path=str(base / "events.jsonl"),
    ))
    thread.start()
    yield thread
    thread.stop()


@pytest.fixture(scope="module")
def audit_client(audit_server):
    host, port = audit_server.address
    return ServiceClient(host, port, timeout=120.0)


def _drain_audit(client, minimum=1, timeout=60.0):
    """Wait for the background auditor to complete ``minimum`` samples."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        audit = client.metrics()["audit"]
        if audit["completed"] + audit["failed"] >= minimum:
            return audit
        time.sleep(0.1)
    raise AssertionError(f"audit did not drain: {client.metrics()['audit']}")


def test_cheap_tier_answers_are_audited_within_their_bounds(audit_client):
    for name in ("banded_001", "stencil_2d_004"):
        envelope = audit_client.predict(name=name, collection="tiny",
                                        max_tier=0, **SETUP)
        assert envelope["ok"]
        assert envelope["fidelity"]["tier"] == 0
    audit = _drain_audit(audit_client, minimum=2)
    assert audit["sampled"] >= 2
    assert audit["failed"] == 0
    assert audit["violations_total"] == 0
    assert audit["status"] == "ok"
    # observed error recorded per paper class, against the tier-0 bound
    assert audit["observed_error"], "expected per-class sketches"
    for per_tier in audit["observed_error"].values():
        for sketch in per_tier.values():
            assert sketch["count"] >= 1
            assert sketch["quantiles"]["p99"] <= sketch["bound"]
    health = audit_client.request("GET", "/healthz")
    assert health["accuracy"] == "ok"


def test_tier1_answers_use_the_apriori_bound(audit_client):
    envelope = audit_client.predict(name="random_uniform_002",
                                    collection="tiny", max_tier=1, **SETUP)
    assert envelope["ok"]
    tier = envelope["fidelity"]["tier"]
    if tier != 1:
        pytest.skip(f"ladder answered at tier {tier}, not 1")
    before = audit_client.metrics()["audit"]["completed"]
    audit = _drain_audit(audit_client, minimum=before + 1)
    tier1 = [sketch for per_tier in audit["observed_error"].values()
             for t, sketch in per_tier.items() if t == "1"]
    assert tier1, "expected a tier-1 sketch"
    assert all(s["bound"] == pytest.approx(0.25) for s in tier1)


def test_cached_repeats_are_not_resampled(audit_client):
    envelope = audit_client.predict(name="banded_001", collection="tiny",
                                    max_tier=0, **SETUP)
    assert envelope["cached"] in ("memory", "disk")
    sampled = audit_client.metrics()["audit"]["sampled"]
    again = audit_client.predict(name="banded_001", collection="tiny",
                                 max_tier=0, **SETUP)
    assert again["cached"] in ("memory", "disk")
    assert audit_client.metrics()["audit"]["sampled"] == sampled


def test_audit_exports_prometheus_families(audit_client):
    _drain_audit(audit_client)
    samples = parse_prometheus_text(audit_client.metrics(format="prometheus"))
    observed = samples["repro_audit_observed_error"]
    assert observed, "expected observed-error quantile samples"
    for labels, value in observed:
        assert set(labels) == {"class", "tier", "quantile"}
        assert labels["quantile"] in ("p50", "p95", "p99")
        assert value >= 0.0
    violations = samples["repro_audit_bound_violations_total"]
    assert sum(value for _, value in violations) == 0
    assert "repro_audit_backlog" in samples


def test_audit_loop_pops_only_while_the_pool_is_idle():
    """Politeness, deterministically: the audit loop pops nothing while a
    foreground evaluation is queued or every worker is busy, and pops as
    soon as both clear — so ``--audit-rate`` never blocks the hot path."""

    async def scenario():
        service = LocalityService(ServiceConfig(jobs=2, cache_dir=None,
                                                audit_rate=1.0))
        meter, popped = service.meter, []

        async def audit_once(item):
            # the audit evaluation holds a pool slot while it runs
            popped.append(item["key"])
            meter.worker_started()

        service._audit_once = audit_once
        for key in ("a", "b", "c"):
            assert service.auditor.offer({"key": key})
        draining = asyncio.create_task(service.audit_loop(poll_seconds=0))

        async def polls():
            for _ in range(20):
                await asyncio.sleep(0)

        try:
            meter.enqueue()  # a foreground request waits for a slot
            await polls()
            assert popped == []
            meter.dequeue()
            meter.worker_started()
            meter.worker_started()  # every worker busy, nothing queued
            await polls()
            assert popped == []
            meter.worker_finished()  # one slot free and nothing queued
            await polls()
            # one pop: the audit evaluation took the freed slot
            assert popped == ["a"]
            assert service.auditor.backlog == 2
        finally:
            draining.cancel()
            await asyncio.gather(draining, return_exceptions=True)
            service.close()

    asyncio.run(scenario())


def test_audit_disabled_daemon_has_no_audit_surface(client):
    snapshot = client.metrics()
    assert "audit" not in snapshot
    health = client.request("GET", "/healthz")
    assert "accuracy" not in health


def test_event_log_correlates_processes_by_trace_id(audit_server,
                                                    audit_client):
    envelope = audit_client.advise(name="power_law_007", collection="tiny",
                                   max_tier=0, **SETUP)
    assert envelope["ok"]
    _drain_audit(audit_client, minimum=1)
    log_path = audit_server.config.event_log_path
    entries, problems = validate_log_text(
        open(log_path, encoding="utf-8").read())
    assert problems == []
    events = {entry["event"] for entry in entries}
    assert {"service.start", "request", "worker.evaluate",
            "audit.sample"} <= events
    # one request's entries share a trace id across daemon + worker pids
    by_trace = {}
    for entry in entries:
        if entry.get("trace_id"):
            by_trace.setdefault(entry["trace_id"], []).append(entry)
    correlated = [
        group for group in by_trace.values()
        if {"request", "worker.evaluate"} <= {e["event"] for e in group}
    ]
    assert correlated, "expected daemon+worker entries sharing a trace_id"
    group = correlated[0]
    pids = {e["source"]["pid"] for e in group}
    assert len(pids) >= 2, "fork worker logs under its own pid"
