"""Tier 2's query-aware stack pass answers exactly what the exact pass does.

Ladder tier 2 builds its Method B with the request's query points, so its
stack pass skips references that hit at every point.  Its answers must be
the bytes of the exact library calls, and a query the floor cannot answer
must raise.
"""

from functools import lru_cache

import pytest

from repro.analysis.report import canonical_json
from repro.core import MethodB, SectorAdvisor
from repro.core.classification import classify
from repro.experiments import ExperimentSetup
from repro.ladder import Ladder, MatrixDims
from repro.matrices import banded, diagonal_plus_random
from repro.obs.tracer import Tracer, installed
from repro.spmv.sector_policy import SectorPolicy

#: one matrix aimed at each paper class at scale 16 (the class it lands in
#: also depends on the thread count)
CLASS_MATRICES = {
    "1": lambda: banded(3_000, 300, 10, seed=1),
    "2": lambda: diagonal_plus_random(9_000, 3, 2, seed=2),
    "3a": lambda: diagonal_plus_random(17_000, 2, 1, seed=3),
    "3b": lambda: diagonal_plus_random(56_000, 1, 1, seed=4),
}
THREADS = (1, 12, 48)
WAY_OPTIONS = (2, 3, 4, 5, 6)


@lru_cache(maxsize=None)
def _matrix(target):
    return CLASS_MATRICES[target]()


def _setup(threads, iterations=2):
    return ExperimentSetup(scale=16, num_threads=threads, iterations=iterations)


def _tier2(endpoint, matrix, setup, **kwargs):
    return Ladder(setup).answer(
        endpoint, MatrixDims.of(matrix), lambda: matrix, name=matrix.name,
        max_tier=2, **kwargs,
    )


def test_the_grid_covers_all_four_paper_classes():
    seen = set()
    for target in CLASS_MATRICES:
        for threads in THREADS:
            machine = _setup(threads).machine()
            cmgs = -(-threads // machine.cores_per_cmg)
            seen.add(classify(_matrix(target), machine, max(WAY_OPTIONS), cmgs).value)
    assert seen == {"1", "2", "3a", "3b"}


@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("target", sorted(CLASS_MATRICES))
def test_tier2_advise_is_byte_identical_to_the_advisor(target, threads):
    matrix = _matrix(target)
    setup = _setup(threads)
    answer = _tier2("advise", matrix, setup, way_options=list(WAY_OPTIONS))
    direct = SectorAdvisor(setup.machine(), num_threads=threads,
                           way_options=WAY_OPTIONS).recommend(matrix)
    assert answer.tier == 2
    assert canonical_json(answer.result) == canonical_json(direct.to_dict())


@pytest.mark.parametrize("iterations", (1, 2))
@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("target", sorted(CLASS_MATRICES))
def test_tier2_predict_is_byte_identical_to_method_b(target, threads, iterations):
    matrix = _matrix(target)
    setup = _setup(threads, iterations)
    policies = [{"l2_sector1_ways": ways} for ways in setup.l2_way_options]
    answer = _tier2("predict", matrix, setup, policies=policies)
    model = MethodB(matrix, setup.machine(), num_threads=threads,
                    iterations=iterations)
    predictions = []
    for entry in policies:
        prediction = model.predict(SectorPolicy.from_dict(entry))
        predictions.append({
            "policy": prediction.policy.to_dict(),
            "l2_misses": int(prediction.l2_misses),
            "per_array": {k: int(v) for k, v in prediction.per_array.items()},
        })
    direct = {"name": matrix.name, "method": "B", "predictions": predictions}
    assert answer.tier == 2
    assert canonical_json(answer.result) == canonical_json(direct)


def _declared_model(matrix, machine, ways=(2, 5)):
    exact = MethodB(matrix, machine, num_threads=1)
    points = [(exact.s1, machine.l2.partition_lines(w)[0]) for w in ways]
    return exact, points, MethodB(matrix, machine, num_threads=1,
                                  query_points=points)


def test_declared_points_are_answered_exactly():
    matrix = _matrix("3a")
    exact, points, model = _declared_model(matrix, _setup(1).machine())
    assert model.window_floor > 0
    for scale, capacity in points:
        assert model.x_misses(scale, capacity) == exact.x_misses(scale, capacity)


def test_a_query_below_the_floor_raises():
    matrix = _matrix("3a")
    _, _, model = _declared_model(matrix, _setup(1).machine())
    with pytest.raises(ValueError, match="window floor"):
        model.x_misses(model.s1, 1)


def test_stack_pass_span_reports_what_it_counted():
    matrix = _matrix("2")
    setup = _setup(1)
    with installed(Tracer()) as tracer:
        _tier2("advise", matrix, setup, way_options=list(WAY_OPTIONS))
        MethodB(matrix, setup.machine(), num_threads=1).x_misses(1.0, 1)
    floored, exact = (node.attrs
                       for node in tracer.tree().find("method_b.stack_pass"))
    assert 0 < floored["counted"] < floored["references"]
    assert exact["counted"] == exact["references"]
