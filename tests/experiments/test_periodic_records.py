"""Experiment records priced from one period vs. the doubled-trace oracle.

Records produced by the single-period engines and by the repeated-trace
pipeline of :mod:`tests.oracles.doubled` must carry identical
deterministic content (same fingerprint), so cached results stay valid
across the engine change.
"""

import pytest

from repro.experiments import run_collection, run_collection_parallel
from repro.experiments.common import (
    ExperimentSetup,
    measure_matrix,
    record_fingerprint,
)
from repro.matrices import banded
from repro.matrices.collection import collection
from tests.oracles.doubled import doubled_engines


def test_fingerprint_invariant_under_periodic_engine():
    matrix = banded(40, 3, 4, seed=1)
    setup = ExperimentSetup(
        num_threads=4,
        l2_way_options=(0, 2, 5),
        l1_way_options=(0, 1),
    )
    fast = measure_matrix(matrix, setup)
    with doubled_engines():
        oracle = measure_matrix(matrix, setup)
    assert record_fingerprint(fast) == record_fingerprint(oracle)


def test_cache_key_ignores_periodic_knob():
    # the engine is not a setup field, and keys are those of the releases
    # that still had the knob: cached records keep serving
    with pytest.raises(TypeError):
        ExperimentSetup(periodic=False)
    assert ExperimentSetup().cache_key("m") == "322fa0a21bd74cb18ff7"


def test_pooled_sweep_matches_the_serial_doubled_trace_sweep():
    """A 2-worker pooled sweep reproduces, record for record, a serial
    sweep priced by the doubled-trace oracle."""
    setup = ExperimentSetup(
        num_threads=8,
        l2_way_options=(0, 2, 5),
        l1_way_options=(0, 1),
    )
    specs = collection("tiny", machine=setup.machine())[:4]
    result = run_collection_parallel(specs, setup, cache_dir=None, jobs=2)
    assert not result.failures, result.failures
    with doubled_engines():
        serial = run_collection(specs, setup, cache_dir=None)
    assert [r.name for r in result.records] == [r.name for r in serial]
    assert [record_fingerprint(r) for r in result.records] == [
        record_fingerprint(r) for r in serial
    ]
