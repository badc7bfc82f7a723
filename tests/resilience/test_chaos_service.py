"""Chaos harness: under every fault class the daemon answers every request
— a result, a structured error, or a degraded answer — and never hangs."""

import json
import threading
import time

import pytest

from repro.analysis.report import canonical_json
from repro.service import ServiceClient, ServiceConfig, ServiceThread
from repro.service.protocol import normalize_request, request_key

from .conftest import SETUP, inline_matrix, make_plan


# ----------------------------------------------------------------------
# request-key and gating semantics
# ----------------------------------------------------------------------

def test_faults_flag_does_not_change_the_request_key():
    payload = {"matrix": inline_matrix(16), "setup": SETUP}
    plain = normalize_request("advise", payload)
    faulted = normalize_request("advise", {
        **payload,
        "faults": make_plan({"site": "worker.evaluate", "kind": "error"}),
    })
    assert request_key(plain) == request_key(faulted)


def test_malformed_plan_is_a_400_with_problems(chaos_client):
    with pytest.raises(Exception) as info:
        chaos_client.advise(matrix=inline_matrix(16),
                            faults={"schema": "nope", "rules": []}, **SETUP)
    assert info.value.status == 400
    assert "invalid fault plan" in info.value.error["message"]


def test_fault_flag_refused_without_allow_flag(tmp_path):
    thread = ServiceThread(ServiceConfig(jobs=1, cache_dir=None))
    host, port = thread.start()
    try:
        client = ServiceClient(host, port, timeout=30.0)
        with pytest.raises(Exception) as info:
            client.advise(
                matrix=inline_matrix(16),
                faults=make_plan({"site": "worker.evaluate", "kind": "error"}),
                **SETUP,
            )
        assert info.value.status == 403
        assert "--allow-fault-injection" in info.value.error["message"]
    finally:
        thread.stop()


def test_no_fault_responses_are_byte_identical_to_a_plain_daemon(tmp_path):
    """With faults simply *enabled* but unused, the wire is unchanged."""
    plain = ServiceThread(ServiceConfig(jobs=1, cache_dir=None))
    plain_host, plain_port = plain.start()
    try:
        payload = {"matrix": inline_matrix(24), "setup": SETUP}
        chaos = ServiceThread(ServiceConfig(jobs=1, cache_dir=None,
                                            allow_fault_injection=True))
        chaos_host, chaos_port = chaos.start()
        try:
            for endpoint in ("classify", "predict", "advise"):
                a = ServiceClient(plain_host, plain_port).request(
                    "POST", f"/{endpoint}", payload)
                b = ServiceClient(chaos_host, chaos_port).request(
                    "POST", f"/{endpoint}", payload)
                assert canonical_json(a) == canonical_json(b)
        finally:
            chaos.stop()
    finally:
        plain.stop()


# ----------------------------------------------------------------------
# fault classes, one by one
# ----------------------------------------------------------------------

def test_injected_error_is_a_structured_500(chaos_client):
    with pytest.raises(Exception) as info:
        chaos_client.advise(
            matrix=inline_matrix(20),
            faults=make_plan({"site": "worker.evaluate", "kind": "error",
                              "max_fires": 1}),
            **SETUP,
        )
    assert info.value.status == 500
    assert info.value.error["type"] == "FaultInjected"
    metrics = chaos_client.metrics()
    assert metrics["faults_injected"].get("worker.evaluate:error", 0) >= 1


def test_injected_crash_kills_a_worker_and_the_daemon_recovers(chaos_client):
    with pytest.raises(Exception) as info:
        chaos_client.advise(
            matrix=inline_matrix(28),
            faults=make_plan({"site": "worker.evaluate", "kind": "crash",
                              "max_fires": 1}),
            **SETUP,
        )
    assert info.value.status == 500
    assert info.value.error["type"] == "WorkerCrashed"
    assert chaos_client.metrics()["workers"]["restarts"] >= 1
    # the rebuilt pool serves the same request cleanly
    envelope = chaos_client.advise(matrix=inline_matrix(28), **SETUP)
    assert envelope["ok"] and "degraded" not in envelope


def test_injected_delay_runs_into_the_timeout(chaos_client):
    with pytest.raises(Exception) as info:
        chaos_client.advise(
            matrix=inline_matrix(32),
            faults=make_plan({"site": "worker.evaluate", "kind": "delay",
                              "delay_seconds": 2.0, "max_fires": 1}),
            timeout=0.2,
            **SETUP,
        )
    assert info.value.status == 504
    assert info.value.error["type"] == "TimeoutError"


def test_injected_saturation_degrades_with_an_analytic_answer(chaos_client):
    before = chaos_client.metrics()["evaluations"].get("advise", 0)
    envelope = chaos_client.advise(
        matrix=inline_matrix(36),
        faults=make_plan({"site": "pool.submit", "kind": "saturate",
                          "max_fires": 1}),
        **SETUP,
    )
    assert envelope["ok"] and envelope["degraded"]
    assert envelope["degraded_reason"] == "pool_saturated"
    assert envelope["cached"] is None
    assert envelope["result"]["best"]["policy"]  # Recommendation shape
    metrics = chaos_client.metrics()
    assert metrics["degraded"]["advise"]["pool_saturated"] >= 1
    # the pool was never touched and nothing was cached: a follow-up
    # normal request pays a fresh evaluation
    assert metrics["evaluations"].get("advise", 0) == before
    follow_up = chaos_client.advise(matrix=inline_matrix(36), **SETUP)
    assert follow_up["cached"] is None and "degraded" not in follow_up
    assert chaos_client.metrics()["evaluations"]["advise"] == before + 1


def test_degraded_classify_equals_the_full_answer(chaos_client):
    matrix = inline_matrix(40)
    degraded = chaos_client.classify(
        matrix=matrix,
        faults=make_plan({"site": "pool.submit", "kind": "saturate",
                          "max_fires": 1}),
        **SETUP,
    )
    assert degraded["degraded"]
    full = chaos_client.classify(matrix=matrix, **SETUP)
    assert degraded["result"] == full["result"]  # the taxonomy is closed-form


def test_sweep_saturation_sheds_with_a_structured_503(chaos_client):
    with pytest.raises(Exception) as info:
        chaos_client.sweep(
            matrix=inline_matrix(16),
            faults=make_plan({"site": "pool.submit", "kind": "saturate",
                              "max_fires": 1}),
            **SETUP,
        )
    assert info.value.status == 503
    assert info.value.error["type"] == "ServiceUnavailable"
    assert info.value.error["reason"] == "pool_saturated"
    assert "retry_after_seconds" in info.value.error


def test_corrupt_disk_entry_is_quarantined_and_healed(chaos_server, chaos_client):
    matrix = inline_matrix(44)
    first = chaos_client.advise(matrix=matrix, **SETUP)
    assert first["cached"] is None

    # memory tier is off, so this request must read the disk entry — the
    # injected corruption quarantines it and forces a clean re-evaluation
    corrupted = chaos_client.advise(
        matrix=matrix,
        faults=make_plan({"site": "cache.disk_read", "kind": "corrupt",
                          "max_fires": 1}),
        **SETUP,
    )
    assert corrupted["ok"] and corrupted["cached"] is None
    assert corrupted["result"] == first["result"]
    stats = chaos_client.metrics()["cache"]["disk"]
    assert stats["corrupt"] >= 1
    cache_dir = chaos_server.service.cache.cache_dir
    assert list(cache_dir.glob("*.corrupt")), "corrupt entry not quarantined"

    # the faulted request never writes the cache; the next healthy request
    # re-evaluates and heals the entry, after which reads hit disk again
    healed = chaos_client.advise(matrix=matrix, **SETUP)
    assert healed["cached"] is None and healed["result"] == first["result"]
    assert chaos_client.advise(matrix=matrix, **SETUP)["cached"] == "disk"


def test_disk_read_fault_spares_the_tier3_entry(chaos_client):
    """A request's ``cache.disk_read`` fault corrupts only the plain
    entry's read: a tier-3 answer (``<key>.t3``) is served from disk."""
    matrix = inline_matrix(46)
    first = chaos_client.predict(matrix=matrix, accuracy=1e-9, **SETUP)
    assert first["cached"] is None and first["fidelity"]["tier"] == 3
    served = chaos_client.predict(
        matrix=matrix, accuracy=1e-9,
        faults=make_plan({"site": "cache.disk_read", "kind": "corrupt"}),
        **SETUP,
    )
    assert served["cached"] == "disk" and served["fidelity"]["tier"] == 3
    assert served["result"] == first["result"]


# ----------------------------------------------------------------------
# circuit breaker: deterministic transitions end to end
# ----------------------------------------------------------------------

def test_breaker_opens_degrades_and_recovers(tmp_path):
    thread = ServiceThread(ServiceConfig(
        jobs=1, cache_dir=None, allow_fault_injection=True,
        breaker_failure_threshold=2, breaker_recovery_seconds=0.3,
    ))
    host, port = thread.start()
    try:
        client = ServiceClient(host, port, timeout=30.0)
        error_plan = make_plan({"site": "worker.evaluate", "kind": "error",
                                "max_fires": 1})
        for rows in (16, 20):  # two consecutive 5xx failures trip it
            with pytest.raises(Exception) as info:
                client.advise(matrix=inline_matrix(rows), faults=error_plan,
                              **SETUP)
            assert info.value.status == 500

        snap = client.metrics()["breakers"]["advise"]
        assert snap["state"] == "open"
        assert snap["transitions"] == {"closed->open": 1}

        # open breaker: a normal cache-missing request degrades instantly
        envelope = client.advise(matrix=inline_matrix(24), **SETUP)
        assert envelope["degraded"]
        assert envelope["degraded_reason"] == "breaker_open"
        assert client.metrics()["degraded"]["advise"]["breaker_open"] == 1

        # after the recovery window one probe goes through and closes it
        time.sleep(0.35)
        envelope = client.advise(matrix=inline_matrix(24), **SETUP)
        assert "degraded" not in envelope
        snap = client.metrics()["breakers"]["advise"]
        assert snap["state"] == "closed"
        assert snap["transitions"] == {
            "closed->open": 1, "open->half_open": 1, "half_open->closed": 1,
        }
    finally:
        thread.stop()


def test_breaker_counts_ride_the_prometheus_exposition(tmp_path):
    thread = ServiceThread(ServiceConfig(
        jobs=1, cache_dir=None, allow_fault_injection=True,
        breaker_failure_threshold=1, breaker_recovery_seconds=60.0,
    ))
    host, port = thread.start()
    try:
        client = ServiceClient(host, port, timeout=30.0)
        with pytest.raises(Exception):
            client.advise(
                matrix=inline_matrix(16),
                faults=make_plan({"site": "worker.evaluate", "kind": "error"}),
                **SETUP,
            )
        client.advise(matrix=inline_matrix(20), **SETUP)  # degraded
        text = client.metrics(format="prometheus")
        assert 'repro_breaker_state{endpoint="advise"} 1' in text
        assert ('repro_breaker_transitions_total{endpoint="advise",'
                'transition="closed->open"} 1') in text
        assert ('repro_degraded_total{endpoint="advise",'
                'reason="breaker_open"} 1') in text
        assert ('repro_faults_injected_total{site="worker.evaluate",'
                'kind="error"} 1') in text
        from repro.obs.prometheus import parse_prometheus_text
        parse_prometheus_text(text)  # stays strictly parseable
    finally:
        thread.stop()


# ----------------------------------------------------------------------
# zero lost requests under a concurrent faulted burst
# ----------------------------------------------------------------------

def test_no_request_is_lost_under_a_concurrent_faulted_burst(chaos_client):
    """Crash, delay, error and saturation all at once: every request gets
    an answer (ok, structured error, or degraded) within the deadline."""
    plans = [
        None,
        make_plan({"site": "worker.evaluate", "kind": "crash", "max_fires": 1}),
        make_plan({"site": "worker.evaluate", "kind": "error", "max_fires": 1}),
        make_plan({"site": "worker.evaluate", "kind": "delay",
                   "delay_seconds": 0.4, "max_fires": 1}),
        make_plan({"site": "pool.submit", "kind": "saturate", "max_fires": 1}),
    ]
    outcomes: dict[int, str] = {}

    def one(i):
        try:
            envelope = chaos_client.advise(
                matrix=inline_matrix(48 + i),  # distinct keys: no coalescing
                faults=plans[i % len(plans)],
                timeout=5.0,
                **SETUP,
            )
            outcomes[i] = "degraded" if envelope.get("degraded") else "ok"
        except Exception as exc:
            # structured failures only: the error must carry a type
            assert getattr(exc, "error", {}).get("type"), exc
            outcomes[i] = f"error:{exc.error['type']}"

    threads = [threading.Thread(target=one, args=(i,)) for i in range(20)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive(), "a chaos request hung"
    assert len(outcomes) == 20, "a chaos request was lost"
    assert any(v == "ok" for v in outcomes.values())
    # the daemon is still healthy afterwards
    assert chaos_client.health()["ok"]
    assert chaos_client.advise(matrix=inline_matrix(200), **SETUP)["ok"]
