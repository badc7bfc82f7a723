"""``POST /delta`` end to end: identity, chaining, failure modes, metrics."""

import json

import numpy as np
import pytest

from repro.analysis.report import canonical_json
from repro.delta import MatrixDelta
from repro.matrices.generators import banded
from repro.service import ServiceClient, ServiceConfig, ServiceThread
from repro.service.client import ServiceError
from repro.service.protocol import derive_delta_task, normalize_delta, request_key
from repro.service.registry import TaskRegistry

#: The incremental engine patches single-thread traces, so delta bases
#: are submitted sequentially (the module conftest's 8-thread SETUP is
#: exercised separately as the ``threads`` fallback).
SEQ = {"num_threads": 1, "scale": 16}

MATRIX = banded(1_200, 8, 6, seed=2)


def band_edits(matrix, rows):
    inserts, deletes = [], []
    for r in rows:
        cols = matrix.colidx[matrix.rowptr[r]:matrix.rowptr[r + 1]].tolist()
        colset = set(cols)
        ins = next(c for base in cols for c in (base + 1, base - 1)
                   if 0 <= c < matrix.num_cols and c not in colset)
        inserts.append([r, int(ins), 1.0])
        deletes.append([r, int(cols[0])])
    return inserts, deletes


def expect_error(fn, status):
    with pytest.raises(ServiceError) as excinfo:
        fn()
    assert excinfo.value.status == status, excinfo.value.error
    return excinfo.value


def without(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


def test_delta_answer_is_byte_identical_and_chains_keys(client):
    base = client.advise(matrix=MATRIX, **SEQ)
    assert base["ok"], base

    ins1, del1 = band_edits(MATRIX, [10, 400, 900])
    d1 = client.delta(base["key"], inserts=ins1, deletes=del1)
    assert d1["ok"] and d1["delta"]["path"] == "incremental", d1
    assert d1["delta"]["base"] == base["key"]
    assert d1["delta"]["chain_length"] == 1
    assert d1["delta"]["edits"] == len(ins1) + len(del1)

    edited = MatrixDelta.from_dict(
        {"inserts": ins1, "deletes": del1}).apply(MATRIX).matrix
    full = client.advise(matrix=edited, **SEQ)
    assert d1["result"] == full["result"]

    # the derived key is itself a registered base: edits chain
    ins2, del2 = band_edits(edited, [60, 700])
    d2 = client.delta(d1["key"], inserts=ins2, deletes=del2)
    assert d2["ok"] and d2["delta"]["chain_length"] == 2, d2
    assert len({base["key"], d1["key"], d2["key"]}) == 3
    twice = MatrixDelta.from_dict(
        {"inserts": ins2, "deletes": del2}).apply(edited).matrix
    assert d2["result"] == client.advise(matrix=twice, **SEQ)["result"]

    # a repeated batch costs a cache lookup, not another patch
    again = client.delta(base["key"], inserts=ins1, deletes=del1)
    assert again["cached"] == "memory" and again["key"] == d1["key"]
    assert again["result"] == d1["result"]
    assert again["delta"]["chain_length"] == 1


def test_unknown_base_is_404(client):
    ins, _ = band_edits(MATRIX, [5])
    exc = expect_error(lambda: client.delta("f" * 32, inserts=ins), 404)
    assert "registry" in exc.error["message"]


def test_tampered_registry_record_is_409(server, client):
    """Memory entries are trusted, so tampering happens on disk: a
    record read back must revalidate, and one that failed is never held,
    so the next request reads and refuses it again."""
    matrix = banded(1_000, 8, 6, seed=5)
    key = client.advise(matrix=matrix, **SEQ)["key"]
    registry = server.service.registry
    path = registry.cache_dir / f"{key}.task.json"
    record = json.loads(path.read_text())
    path.write_text(canonical_json(
        dict(record, setup=dict(record["setup"], scale=17))))
    del registry._memory[key]  # the next lookup reads the file back

    ins, del_ = band_edits(matrix, [5])
    for _ in range(2):
        exc = expect_error(
            lambda: client.delta(key, inserts=ins, deletes=del_), 409)
        assert "revalidation" in exc.error["message"]
        assert key not in registry._memory


def test_malformed_registry_record_is_409(server, client):
    matrix = banded(1_000, 8, 6, seed=6)
    key = client.advise(matrix=matrix, **SEQ)["key"]
    registry = server.service.registry
    path = registry.cache_dir / f"{key}.task.json"
    record = json.loads(path.read_text())
    ins, del_ = band_edits(matrix, [5])
    for broken in ({k: v for k, v in record.items() if k != "matrix"},
                   dict(record, matrix=[1, 2]),
                   dict(record, matrix={"kind": "delta"})):
        path.write_text(json.dumps(broken))
        registry._memory.pop(key, None)
        expect_error(lambda: client.delta(key, inserts=ins, deletes=del_), 409)


def test_records_read_back_from_disk_respect_the_registry_capacity(tmp_path):
    """A record read back from disk is not held until it is trusted, and
    trusting records keeps the memory map within its capacity."""
    tasks = {f"{i:032x}": {"endpoint": "advise", "n": i} for i in range(3)}
    writer = TaskRegistry(tmp_path, capacity=2)
    for key, task in tasks.items():
        writer.put(key, task, canonical_json(task))
    reader = TaskRegistry(tmp_path, capacity=2)
    for key, task in tasks.items():
        assert reader.get(key) == task
        assert reader.get(key, entry=True) == (task, None, False)
    assert not reader._memory
    for key, task in tasks.items():
        reader.hold(key, task, "{}")
        assert reader.get(key, entry=True) == (task, "{}", True)
    assert list(reader._memory) == list(tasks)[1:]


def test_a_chain_continues_after_a_restart(tmp_path):
    """A restarted daemon reads the chain's derived base back from its
    cache directory and steps it to the key and answer bytes a daemon
    holding the chain in memory gives."""
    edited = MatrixDelta.from_dict(
        dict(zip(("inserts", "deletes"), band_edits(MATRIX, [10, 400])))
    ).apply(MATRIX).matrix
    batches = [band_edits(MATRIX, [10, 400]), band_edits(edited, [60, 700])]

    def chain(cache_dir, restart_after=None):
        steps = []
        config = ServiceConfig(jobs=1, cache_dir=str(cache_dir))
        thread = ServiceThread(config)
        host, port = thread.start()
        client = ServiceClient(host, port, timeout=120.0)
        key = client.advise(matrix=MATRIX, **SEQ)["key"]
        for index, (ins, del_) in enumerate(batches):
            if index == restart_after:
                client.close()
                thread.stop()
                thread = ServiceThread(config)
                client = ServiceClient(*thread.start(), timeout=120.0)
                assert not thread.service.registry._memory
            step = client.delta(key, inserts=ins, deletes=del_)
            assert step["ok"] and step["cached"] is None, step
            steps.append(step)
            key = step["key"]
        client.close()
        thread.stop()
        return steps

    memory = chain(tmp_path / "memory")
    restarted = chain(tmp_path / "restarted", restart_after=1)
    assert restarted[1]["delta"]["chain_length"] == 2
    assert restarted[1]["delta"]["path"] == "incremental"
    for held, read in zip(memory, restarted):
        assert read["key"] == held["key"]
        assert canonical_json(read["result"]) == canonical_json(held["result"])


def test_flags_written_into_a_stored_record_stay_out_of_the_delta(server, client):
    """A ``<key>.task.json`` whose bytes gain request flags still
    revalidates (flags are outside the key), and the derived task carries
    none of them: a leaked ``faults`` plan would fail the evaluation and
    a leaked ``timeout`` would cut it short."""
    matrix = banded(900, 8, 6, seed=11)
    key = client.advise(matrix=matrix, **SEQ)["key"]
    registry = server.service.registry
    path = registry.cache_dir / f"{key}.task.json"
    clean = json.loads(path.read_text())
    path.write_text(json.dumps(dict(
        clean, timeout=1e-6,
        faults={"schema": "repro.resilience.plan/v1",
                "rules": [{"site": "worker.evaluate", "kind": "error"}]})))
    del registry._memory[key]  # the next lookup reads the file back

    ins, del_ = band_edits(matrix, [50, 500])
    body = {"base": key, "delta": {"inserts": ins, "deletes": del_}}
    stored = registry.get(key)
    assert {"faults", "timeout"} <= set(stored)
    assert request_key(stored) == key
    derived = derive_delta_task(stored, normalize_delta(body), 65_536)
    assert not {"faults", "timeout"} & set(derived)

    answer = client.delta(key, inserts=ins, deletes=del_)
    assert answer["ok"] and answer["cached"] is None, answer
    assert answer["key"] == request_key(
        derive_delta_task(clean, normalize_delta(body), 65_536))
    edited = MatrixDelta.from_dict(
        {"inserts": ins, "deletes": del_}).apply(matrix).matrix
    assert answer["result"] == client.advise(matrix=edited, **SEQ)["result"]


def test_bad_batches_are_400(client):
    base = client.advise(matrix=MATRIX, **SEQ)
    # inserting an edge that already exists: DeltaError out of the worker
    existing = [[3, int(MATRIX.colidx[MATRIX.rowptr[3]]), 1.0]]
    exc = expect_error(lambda: client.delta(base["key"], inserts=existing),
                       400)
    assert exc.error["type"] == "DeltaError"
    # an empty batch is rejected at validation, before any base lookup
    expect_error(lambda: client.delta(base["key"]), 400)
    # malformed base keys never reach the registry
    expect_error(lambda: client.delta("nope", inserts=[[0, 1]]), 400)


def test_non_model_base_is_never_registered(client):
    # only classify/predict/advise keys enter the stored-task registry;
    # a sweep key is valid for cache reads but can never take deltas
    swept = client.sweep(matrix=banded(600, 4, 3, seed=5), **SEQ)
    ins = [[0, 599, 1.0]]
    exc = expect_error(lambda: client.delta(swept["key"], inserts=ins), 404)
    assert "registry" in exc.error["message"]


def test_parallel_base_falls_back_but_still_answers(client):
    base = client.advise(matrix=MATRIX, num_threads=8, scale=16)
    ins, del_ = band_edits(MATRIX, [33])
    fb = client.delta(base["key"], inserts=ins, deletes=del_)
    assert fb["ok"], fb
    assert fb["delta"]["path"] == "fallback"
    assert fb["delta"]["reason"] == "threads"
    edited = MatrixDelta.from_dict(
        {"inserts": ins, "deletes": del_}).apply(MATRIX).matrix
    assert fb["result"] == client.advise(matrix=edited,
                                         num_threads=8, scale=16)["result"]


def test_ladder_flags_ride_the_delta(client):
    base = client.advise(matrix=MATRIX, **SEQ)
    ins, del_ = band_edits(MATRIX, [77])
    loose = client.delta(base["key"], inserts=ins, deletes=del_,
                         accuracy=10.0)
    assert loose["ok"], loose
    assert loose["delta"]["path"] == "ladder"
    assert "reason" not in loose["delta"] and loose["delta"]["drift"] > 0
    assert loose["fidelity"]["tier"] == 0 and "drift" not in loose["fidelity"]
    # the step answers exactly as the edited pattern submitted in full
    edited = MatrixDelta.from_dict(
        {"inserts": ins, "deletes": del_}).apply(MATRIX).matrix
    full = client.advise(matrix=edited, accuracy=10.0, **SEQ)
    assert without(loose["result"], "name") == without(full["result"], "name")
    assert without(loose["fidelity"], "cost_seconds") == \
        without(full["fidelity"], "cost_seconds")


@pytest.mark.parametrize("flags", [{"max_tier": 0}, {"accuracy": 10.0}])
def test_an_inapplicable_flagged_batch_is_400(client, flags):
    base = client.advise(matrix=MATRIX, **SEQ)
    existing = [[3, int(MATRIX.colidx[MATRIX.rowptr[3]]), 1.0]]
    exc = expect_error(
        lambda: client.delta(base["key"], inserts=existing, **flags), 400)
    assert exc.error["type"] == "DeltaError"


def test_tier0_step_on_a_duplicated_coo_base_matches_the_full_submission(
        client):
    rows = np.repeat(np.arange(MATRIX.num_rows), np.diff(MATRIX.rowptr))
    coo = {"coo": {"num_rows": MATRIX.num_rows, "num_cols": MATRIX.num_cols,
                   "rows": np.tile(rows, 4).tolist(),
                   "cols": np.tile(MATRIX.colidx, 4).tolist()}}
    base = client.advise(matrix=coo, **SEQ)
    ins, del_ = band_edits(MATRIX, [77, 500])
    step = client.delta(base["key"], inserts=ins, deletes=del_, max_tier=0)
    edited = MatrixDelta.from_dict(
        {"inserts": ins, "deletes": del_}).apply(MATRIX).matrix
    full = client.advise(matrix=edited, max_tier=0, **SEQ)
    assert without(step["result"], "name") == without(full["result"], "name")
    assert without(step["fidelity"], "cost_seconds") == \
        without(full["fidelity"], "cost_seconds")


def test_metrics_expose_the_delta_families(client):
    base = client.advise(matrix=MATRIX, **SEQ)
    ins, del_ = band_edits(MATRIX, [123, 456])
    assert client.delta(base["key"], inserts=ins, deletes=del_)["ok"]
    snapshot = client.metrics()["delta"]
    assert snapshot["applied"]["advise"]["incremental"] >= 1
    assert snapshot["fallback"].get("advise", {}).get("threads", 0) >= 0
    drift = snapshot["drift"]
    assert drift["count"] >= 1 and drift["sum_seconds"] >= 0.0
    assert any(v >= 1 for v in drift["buckets"].values())
