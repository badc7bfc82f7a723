"""Single-period pricing of methods A and B vs. the doubled-trace oracle.

The single-period steady-state engine must be *byte-identical* to the
``repeat_trace`` pipeline of :mod:`tests.oracles.doubled` — same
MissPredictions, same cold-miss counts — across matrices, thread counts
and sector configurations, at both cache levels, partitioned and shared.
"""

import numpy as np
import pytest

from repro.core import CacheMissModel, MethodA, MethodB
from repro.machine.a64fx import scaled_machine
from repro.matrices import banded, power_law, random_uniform
from repro.spmv.csr import CSRMatrix
from repro.spmv.sector_policy import SectorPolicy, no_sector_cache
from tests.oracles.doubled import DoubledMethodA, DoubledMethodB, DoubledModel

MACHINE = scaled_machine()


def empty_row_matrix():
    """A matrix whose middle rows carry no nonzeros at all."""
    dense = np.zeros((9, 7))
    dense[0, :3] = 1.0
    dense[7, 4:] = 1.0
    return CSRMatrix.from_dense(dense, name="empty_rows")


def single_row_matrix():
    return CSRMatrix.from_dense(np.ones((1, 11)), name="single_row")


MATRICES = [
    banded(60, 3, 4, seed=1),
    random_uniform(40, 5, seed=2),
    power_law(50, 4.0, seed=3),
    empty_row_matrix(),
    single_row_matrix(),
]

POLICIES = [no_sector_cache()] + [
    SectorPolicy(l2_sector1_ways=l2w, l1_sector1_ways=l1w)
    for l2w in (1, 2, 5, 7)
    for l1w in (0, 1, 2)
]


ORACLES = {MethodA: DoubledMethodA, MethodB: DoubledMethodB}

#: Thread counts of the static schedule; every trace merges in MCS order.
THREADS = (1, 2, 3, 4)
THREAD_IDS = [f"{t}-mcs" for t in THREADS]


def _pairs(method_cls, matrix, num_threads, iterations=2):
    kwargs = dict(num_threads=num_threads, iterations=iterations)
    fast = method_cls(matrix, MACHINE, **kwargs)
    oracle = ORACLES[method_cls](matrix, MACHINE, **kwargs)
    return fast, oracle


def assert_same_prediction(p, q):
    assert p.l2_misses == q.l2_misses
    assert p.misses == q.misses  # the level-agnostic alias agrees too
    assert p.per_array == q.per_array
    assert p.method == q.method


@pytest.mark.parametrize("matrix", MATRICES, ids=lambda m: m.name)
@pytest.mark.parametrize("num_threads", THREADS, ids=THREAD_IDS)
def test_method_a_periodic_is_byte_identical(matrix, num_threads):
    fast, oracle = _pairs(MethodA, matrix, num_threads)
    for policy in POLICIES:
        assert_same_prediction(fast.predict(policy), oracle.predict(policy))
        assert_same_prediction(fast.predict_l1(policy), oracle.predict_l1(policy))
    assert fast.cold_misses() == oracle.cold_misses()
    assert fast.x_traffic_fraction(POLICIES[0]) == oracle.x_traffic_fraction(
        POLICIES[0]
    )


@pytest.mark.parametrize("matrix", MATRICES, ids=lambda m: m.name)
@pytest.mark.parametrize("num_threads", THREADS, ids=THREAD_IDS)
def test_method_b_periodic_is_byte_identical(matrix, num_threads):
    fast, oracle = _pairs(MethodB, matrix, num_threads)
    for policy in POLICIES:
        assert_same_prediction(fast.predict(policy), oracle.predict(policy))
        assert_same_prediction(fast.predict_l1(policy), oracle.predict_l1(policy))


@pytest.mark.parametrize("iterations", [3, 4])
def test_more_iterations_still_match(iterations):
    # pure-periodic steady state is stationary, so the engine covers any
    # iterations >= 2 for methods A and B
    matrix = random_uniform(30, 4, seed=7)
    for cls in (MethodA, MethodB):
        fast, oracle = _pairs(cls, matrix, 2, iterations)
        assert fast.periodic
        for policy in (no_sector_cache(), SectorPolicy(l2_sector1_ways=4)):
            assert_same_prediction(fast.predict(policy), oracle.predict(policy))


def test_single_iteration_disables_the_fast_path():
    matrix = banded(20, 1, 2, seed=9)
    model = MethodA(matrix, MACHINE, iterations=1)
    assert not model.periodic  # one cold pass has no steady state
    assert not MethodB(matrix, MACHINE, iterations=1).periodic


@pytest.mark.parametrize("method_cls", [MethodA, MethodB], ids=lambda c: c.__name__)
def test_single_iteration_matches_the_oracle(method_cls):
    # one iteration: a plain cold pass over the period, every access counted
    matrix = power_law(40, 4.0, seed=12)
    fast, oracle = _pairs(method_cls, matrix, 3, iterations=1)
    for policy in POLICIES:
        assert_same_prediction(fast.predict(policy), oracle.predict(policy))
        assert_same_prediction(fast.predict_l1(policy), oracle.predict_l1(policy))
    if method_cls is MethodA:
        assert fast.cold_misses() == oracle.cold_misses()


@pytest.mark.parametrize("cls", [MethodA, MethodB, CacheMissModel],
                         ids=lambda c: c.__name__)
@pytest.mark.parametrize("iterations", [0, -1])
def test_non_positive_iterations_rejected(cls, iterations):
    with pytest.raises(ValueError, match="iterations must be positive"):
        cls(banded(20, 1, 2, seed=9), MACHINE, iterations=iterations)


def test_cache_miss_model_matches_the_doubled_model():
    matrix = banded(30, 2, 3, seed=11)
    fast = CacheMissModel(matrix, MACHINE, num_threads=2)
    oracle = DoubledModel(matrix, MACHINE, num_threads=2)
    for method in ("A", "B"):
        for policy in (no_sector_cache(), SectorPolicy(l2_sector1_ways=3)):
            assert_same_prediction(
                fast.predict(policy, method), oracle.predict(policy, method)
            )
            assert_same_prediction(
                fast.predict_l1(policy, method), oracle.predict_l1(policy, method)
            )


def test_misses_alias_equals_l2_misses_field():
    matrix = banded(25, 2, 2, seed=13)
    model = MethodA(matrix, MACHINE)
    pred = model.predict_l1(no_sector_cache())
    assert pred.misses == pred.l2_misses
