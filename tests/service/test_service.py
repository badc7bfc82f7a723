"""End-to-end daemon behaviour over real HTTP.

The acceptance criteria live here: service responses byte-identical to
direct model calls, N concurrent identical requests performing exactly
one evaluation (asserted via the ``/metrics`` evaluation counter), and
fault isolation — a crashed or timed-out worker yields a structured JSON
error while the daemon keeps serving.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.analysis.report import canonical_json
from repro.core import MethodB, SectorAdvisor, classify
from repro.core.advisor import Recommendation
from repro.experiments import ExperimentSetup, record_fingerprint, run_collection
from repro.experiments.common import MatrixRecord, measure_matrix
from repro.machine import scaled_machine
from repro.matrices import banded
from repro.matrices.collection import collection
from repro.resilience.faults import FaultPlan
from repro.service import ServiceClient, ServiceConfig, ServiceThread, matrix_payload
from repro.spmv import listing1_policy, no_sector_cache

from .conftest import SETUP

MACHINE = scaled_machine(16)


def test_health_and_metrics_shape(client):
    assert client.health() == {"ok": True, "status": "healthy"}
    metrics = client.metrics()
    assert {"uptime_seconds", "requests", "evaluations", "coalesced",
            "cache_served", "latency_seconds", "cache", "queue",
            "workers"} <= set(metrics)
    assert metrics["workers"]["jobs"] == 2
    assert metrics["cache"]["memory"]["max_bytes"] > 0


def test_advise_byte_identical_to_direct_call(client):
    matrix = banded(900, 30, 8, seed=11)
    envelope = client.advise(matrix, **SETUP)
    direct = SectorAdvisor(MACHINE, num_threads=8).recommend(matrix)
    assert canonical_json(envelope["result"]) == canonical_json(direct.to_dict())
    # and the wire form round-trips into a live Recommendation
    rec = Recommendation.from_dict(envelope["result"])
    assert rec.best == direct.best
    assert rec.predicted_speedup == direct.predicted_speedup


def test_predict_matches_method_b(client):
    matrix = banded(800, 24, 6, seed=12)
    envelope = client.predict(
        matrix, policies=[{"l2_sector1_ways": 0}, {"l2_sector1_ways": 5}], **SETUP
    )
    model = MethodB(matrix, MACHINE, num_threads=8)
    for entry, policy in zip(envelope["result"]["predictions"],
                             [no_sector_cache(), listing1_policy(5)]):
        direct = model.predict(policy)
        assert entry["l2_misses"] == direct.l2_misses
        assert entry["per_array"] == {k: int(v) for k, v in direct.per_array.items()}


def test_classify_matches_direct_call(client):
    matrix = banded(700, 22, 6, seed=13)
    envelope = client.classify(matrix, way_options=[0, 5], **SETUP)
    num_cmgs = envelope["result"]["num_cmgs"]
    for ways in (0, 5):
        expected = classify(matrix, MACHINE, ways, num_cmgs).value
        assert envelope["result"]["classes"][str(ways)] == expected


def test_second_request_hits_memory_cache(client):
    matrix = banded(640, 16, 5, seed=14)
    first = client.advise(matrix, **SETUP)
    second = client.advise(matrix, **SETUP)
    assert first["cached"] is None
    assert second["cached"] == "memory"
    assert second["result"] == first["result"]
    assert second["key"] == first["key"]


def _plan(*rules):
    return {"schema": "repro.resilience.plan/v1", "rules": list(rules)}


def test_coalescing_one_evaluation_for_concurrent_duplicates(tmp_path):
    # a daemon-wide plan slows every evaluation so the duplicates overlap;
    # ambient plans do not mark a request as chaos, so it still coalesces
    slow = FaultPlan.from_dict(_plan({"site": "worker.evaluate",
                                      "kind": "delay",
                                      "delay_seconds": 0.8}))
    config = ServiceConfig(jobs=2, cache_dir=str(tmp_path),
                           allow_fault_injection=True, fault_plan=slow)
    matrix = banded(620, 14, 5, seed=15)
    payload = {"matrix": matrix_payload(matrix), "setup": SETUP}
    with ServiceThread(config) as (host, port):
        client = ServiceClient(host, port, timeout=120.0)
        with ThreadPoolExecutor(max_workers=6) as pool:
            envelopes = list(pool.map(
                lambda _: client.request("POST", "/advise", payload), range(6)
            ))
        evaluations = client.metrics()["evaluations"].get("advise", 0)
        client.close()
    assert evaluations == 1, "N concurrent duplicates must evaluate once"
    results = {canonical_json(e["result"]) for e in envelopes}
    assert len(results) == 1
    assert sum(e["cached"] == "coalesced" for e in envelopes) == len(envelopes) - 1


def test_worker_crash_is_isolated(client):
    matrix = banded(600, 12, 5, seed=16)
    payload = {"matrix": matrix_payload(matrix), "setup": SETUP,
               "faults": _plan({"site": "worker.evaluate", "kind": "crash"})}
    from repro.service.client import ServiceError

    with pytest.raises(ServiceError) as err:
        client.request("POST", "/advise", payload)
    assert err.value.status == 500
    assert err.value.error["type"] == "WorkerCrashed"
    # the daemon survived and the rebuilt pool serves the next request
    envelope = client.classify(matrix, **SETUP)
    assert envelope["ok"] is True
    assert client.metrics()["workers"]["restarts"] >= 1


def test_timeout_returns_structured_error_and_daemon_survives(client):
    matrix = banded(580, 10, 5, seed=17)
    payload = {"matrix": matrix_payload(matrix), "setup": SETUP,
               "faults": _plan({"site": "worker.evaluate", "kind": "delay",
                                "delay_seconds": 5.0}),
               "timeout": 0.3}
    from repro.service.client import ServiceError

    with pytest.raises(ServiceError) as err:
        client.request("POST", "/classify", payload)
    assert err.value.status == 504
    assert err.value.error["type"] == "TimeoutError"
    envelope = client.classify(matrix, **SETUP)
    assert envelope["ok"] is True


def test_worker_model_error_is_structured_400(client):
    # a pattern-free matrix: method B rejects it inside the worker
    payload = {"matrix": {"csr": {"num_rows": 4, "num_cols": 4,
                                  "rowptr": [0, 0, 0, 0, 0], "colidx": []}},
               "setup": SETUP}
    from repro.service.client import ServiceError

    with pytest.raises(ServiceError) as err:
        client.request("POST", "/advise", payload)
    assert err.value.status == 400
    assert "non-empty" in err.value.error["message"]


def test_unknown_endpoint_and_path(client):
    from repro.service.client import ServiceError

    with pytest.raises(ServiceError) as err:
        client.request("POST", "/frobnicate", {})
    assert err.value.status == 404
    with pytest.raises(ServiceError) as err:
        client.request("GET", "/bogus")
    assert err.value.status == 404


def test_latency_histogram_accumulates(client):
    matrix = banded(560, 8, 4, seed=18)
    client.classify(matrix, **SETUP)
    hist = client.metrics()["latency_seconds"]["classify"]
    assert hist["count"] >= 1
    assert hist["buckets"]["+Inf"] == hist["count"]
    assert hist["sum_seconds"] > 0


def test_named_matrix_from_collection(client):
    spec = collection("tiny")[0]
    envelope = client.classify(name=spec.name, collection="tiny", **SETUP)
    assert envelope["result"]["name"] == spec.name


def test_sweep_matches_measure_matrix_and_shares_disk_records(tmp_path):
    setup = ExperimentSetup(scale=16, num_threads=8,
                            l2_way_options=(0, 5), l1_way_options=(0,))
    specs = collection("tiny", machine=setup.machine())[:1]
    serial = run_collection(specs, setup, tmp_path)

    config = ServiceConfig(jobs=1, cache_dir=str(tmp_path))
    with ServiceThread(config) as (host, port):
        client = ServiceClient(host, port)
        envelope = client.sweep(name=specs[0].name, collection="tiny",
                                num_threads=8, l2_way_options=[0, 5],
                                l1_way_options=[0])
        # the batch sweep's record is the service's disk tier
        assert envelope["cached"] == "disk"
        record = MatrixRecord.from_dict(envelope["result"])
        assert record_fingerprint(record) == record_fingerprint(serial[0])
        client.shutdown()


def test_sweep_inline_matrix_fingerprint(tmp_path):
    matrix = banded(512, 8, 4, seed=19)
    setup = ExperimentSetup(scale=16, num_threads=8,
                            l2_way_options=(0, 5), l1_way_options=(0,))
    config = ServiceConfig(jobs=1, cache_dir=str(tmp_path))
    with ServiceThread(config) as (host, port):
        client = ServiceClient(host, port)
        envelope = client.sweep(matrix, num_threads=8,
                                l2_way_options=[0, 5], l1_way_options=[0])
        record = MatrixRecord.from_dict(envelope["result"])
        direct = measure_matrix(
            type(matrix)(matrix.num_rows, matrix.num_cols, matrix.rowptr,
                         matrix.colidx, matrix.values, name=record.name),
            setup,
        )
        assert record_fingerprint(record) == record_fingerprint(direct)
        client.shutdown()


def test_disk_tier_serves_when_memory_is_cold(tmp_path):
    # a zero-byte memory budget forces every hit onto the disk tier
    matrix = banded(540, 8, 4, seed=20)
    config = ServiceConfig(jobs=1, cache_dir=str(tmp_path), memory_max_bytes=0)
    with ServiceThread(config) as (host, port):
        client = ServiceClient(host, port)
        first = client.advise(matrix, **SETUP)
        second = client.advise(matrix, **SETUP)
        assert first["cached"] is None
        assert second["cached"] == "disk"
        assert second["result"] == first["result"]
        metrics = client.metrics()
        assert metrics["cache"]["disk"]["hits"] >= 1
        client.shutdown()


def test_shutdown_endpoint_stops_daemon():
    config = ServiceConfig(jobs=1, cache_dir=None)
    thread = ServiceThread(config)
    host, port = thread.start()
    client = ServiceClient(host, port)
    assert client.shutdown() == {"ok": True, "status": "shutting down"}
    thread._thread.join(timeout=30)
    assert not thread._thread.is_alive()
