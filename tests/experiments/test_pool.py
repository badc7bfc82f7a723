"""The sweep engine, run in-process (``jobs=1``) and over a fork pool."""

import json
import time
from pathlib import Path

import pytest

from repro.experiments import (
    ExperimentSetup,
    failure_entry_path,
    record_fingerprint,
    run_collection,
    run_collection_parallel,
)
from repro.experiments.common import VOLATILE_FIELDS, cache_entry_path
from repro.matrices import banded
from repro.matrices.collection import MatrixSpec, collection

SETUP = ExperimentSetup(scale=16, num_threads=8, l2_way_options=(0, 5), l1_way_options=(0,))


def _specs(count=3):
    return collection("tiny", machine=SETUP.machine())[:count]


def _raise_injected():
    raise RuntimeError("injected worker failure")


def _sleep_forever():
    time.sleep(4.0)
    raise AssertionError("timeout should have fired first")


def _interrupt():
    raise KeyboardInterrupt


def _bad_spec(name="injected_bad"):
    return MatrixSpec(name=name, family="banded", target_class="1", build=_raise_injected)


def test_parallel_matches_serial_bit_for_bit(tmp_path):
    specs = _specs()
    serial = run_collection(specs, SETUP, tmp_path / "serial")
    result = run_collection_parallel(specs, SETUP, tmp_path / "pooled", jobs=2)
    assert not result.failures
    assert [r.name for r in result.records] == [r.name for r in serial]
    assert [record_fingerprint(r) for r in result.records] == [
        record_fingerprint(r) for r in serial
    ]
    # cache records are identical too, instrumentation fields aside
    for spec in specs:
        a = json.loads(cache_entry_path(tmp_path / "serial", SETUP, spec.name).read_text())
        b = json.loads(cache_entry_path(tmp_path / "pooled", SETUP, spec.name).read_text())
        for volatile in VOLATILE_FIELDS:
            a.pop(volatile, None)
            b.pop(volatile, None)
        assert a == b


def test_run_collection_jobs_flag_dispatches_to_pool(tmp_path):
    specs = _specs(2)
    serial = run_collection(specs, SETUP, tmp_path / "serial")
    pooled = run_collection(specs, SETUP, tmp_path / "pooled", jobs=2)
    assert [record_fingerprint(r) for r in pooled] == [
        record_fingerprint(r) for r in serial
    ]


def test_worker_failure_is_isolated_and_recorded(tmp_path):
    specs = _specs(2)
    specs.insert(1, _bad_spec())
    result = run_collection_parallel(specs, SETUP, tmp_path, jobs=2)
    assert [r.name for r in result.records] == [specs[0].name, specs[2].name]
    assert len(result.failures) == 1
    failure = result.failures[0]
    assert failure.name == "injected_bad"
    assert failure.index == 1
    assert failure.error_type == "RuntimeError"
    assert "injected worker failure" in failure.message
    assert "RuntimeError" in failure.traceback
    # the structured failure record is persisted next to the cache entries
    entry = Path(tmp_path) / f"{SETUP.cache_key('injected_bad')}.failure.json"
    payload = json.loads(entry.read_text())
    assert payload["error_type"] == "RuntimeError"
    assert payload["index"] == 1


def test_in_process_fallback_isolates_failures(tmp_path):
    # jobs=1 exercises the no-pool path with the same result shape
    specs = [_bad_spec()] + _specs(1)
    result = run_collection_parallel(specs, SETUP, tmp_path, jobs=1)
    assert len(result.records) == 1
    assert result.failed_names == ["injected_bad"]


def test_jobs_1_records_a_failing_matrix_and_continues(tmp_path):
    specs = _specs(2)
    specs.insert(1, _bad_spec())
    records = run_collection(specs, SETUP, tmp_path)
    assert [r.name for r in records] == [specs[0].name, specs[2].name]
    payload = json.loads(failure_entry_path(tmp_path, SETUP, "injected_bad").read_text())
    assert payload["error_type"] == "RuntimeError"
    assert payload["index"] == 1


def test_interrupted_sweep_keeps_the_records_absorbed_so_far(tmp_path):
    specs = _specs(3)
    specs.insert(2, MatrixSpec(
        name="injected_interrupt", family="banded", target_class="1", build=_interrupt
    ))
    with pytest.raises(KeyboardInterrupt):
        run_collection_parallel(specs, SETUP, tmp_path, jobs=2, chunksize=1)
    for spec in specs[:2]:
        assert cache_entry_path(tmp_path, SETUP, spec.name).exists()
    assert not failure_entry_path(tmp_path, SETUP, "injected_interrupt").exists()


def test_cached_records_short_circuit_the_pool(tmp_path):
    specs = _specs(2)
    first = run_collection_parallel(specs, SETUP, tmp_path, jobs=2)
    assert first.from_cache == 0
    second = run_collection_parallel(specs, SETUP, tmp_path, jobs=2)
    assert second.from_cache == len(specs)
    assert [record_fingerprint(r) for r in first.records] == [
        record_fingerprint(r) for r in second.records
    ]


def test_per_matrix_timeout_records_failure_and_continues(tmp_path):
    specs = _specs(1)
    stuck = MatrixSpec(
        name="injected_stuck", family="banded", target_class="1", build=_sleep_forever
    )
    specs = [stuck] + specs
    result = run_collection_parallel(
        specs, SETUP, tmp_path, jobs=2, timeout=1.5, chunksize=1
    )
    assert result.failed_names == ["injected_stuck"]
    assert result.failures[0].error_type == "TimeoutError"
    assert [r.name for r in result.records] == [specs[1].name]


def test_records_carry_timing_and_rss_instrumentation(tmp_path):
    records = run_collection(_specs(1), SETUP, tmp_path)
    record = records[0]
    assert set(record.timings) == {"classify", "simulate", "model_a", "model_b", "total"}
    assert record.timings["total"] > 0
    assert record.peak_rss_bytes > 0
    # instrumentation round-trips through the cache
    cached = run_collection(_specs(1), SETUP, tmp_path)[0]
    assert cached.timings == record.timings
    assert cached.peak_rss_bytes == record.peak_rss_bytes


def test_rejects_nonpositive_jobs(tmp_path):
    with pytest.raises(ValueError):
        run_collection_parallel(_specs(1), SETUP, tmp_path, jobs=0)


def test_rejects_a_timeout_it_cannot_enforce(tmp_path):
    # an in-process sweep cannot stop a matrix, so a budget would be a no-op
    with pytest.raises(ValueError, match="jobs >= 2"):
        run_collection_parallel(_specs(1), SETUP, tmp_path, jobs=1, timeout=1.0)


def _now_good_build():
    return banded(200, 4, 3, seed=7)


def _healed_spec():
    # same name (-> same cache key) as _bad_spec, but the build now works
    return MatrixSpec(
        name="injected_bad", family="banded", target_class="1", build=_now_good_build
    )


def test_failure_records_skip_reruns_by_default(tmp_path):
    run_collection_parallel([_bad_spec()], SETUP, tmp_path, jobs=2)
    assert failure_entry_path(tmp_path, SETUP, "injected_bad").exists()
    # even though the spec would succeed now, the persisted failure is
    # replayed instead of re-paying the sweep
    replay = run_collection_parallel([_healed_spec()], SETUP, tmp_path, jobs=2)
    assert replay.failed_names == ["injected_bad"]
    assert replay.failures[0].error_type == "RuntimeError"
    assert replay.from_cache == 1
    assert not replay.records


def test_retry_failures_requeues_and_clears_record(tmp_path):
    run_collection_parallel([_bad_spec()], SETUP, tmp_path, jobs=2)
    entry = failure_entry_path(tmp_path, SETUP, "injected_bad")
    assert entry.exists()
    retried = run_collection_parallel(
        [_healed_spec()], SETUP, tmp_path, jobs=2, retry_failures=True
    )
    assert not retried.failures
    assert [r.name for r in retried.records] == ["injected_bad"]
    # success deletes the stale failure record...
    assert not entry.exists()
    # ...so the next default run measures from the cache, not the record
    again = run_collection_parallel([_healed_spec()], SETUP, tmp_path, jobs=2)
    assert not again.failures and again.from_cache == 1


def test_serial_runner_skips_and_retries_failures(tmp_path, capsys):
    run_collection_parallel([_bad_spec()], SETUP, tmp_path, jobs=2)
    skipped = run_collection([_healed_spec()], SETUP, tmp_path, verbose=True)
    assert skipped == []
    assert "--retry-failures" in capsys.readouterr().out
    retried = run_collection(
        [_healed_spec()], SETUP, tmp_path, retry_failures=True
    )
    assert [r.name for r in retried] == ["injected_bad"]
    assert not failure_entry_path(tmp_path, SETUP, "injected_bad").exists()
