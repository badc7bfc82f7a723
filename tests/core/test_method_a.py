"""Method A: full-trace model vs. brute-force LRU partition simulation."""

import numpy as np
import pytest

from repro.core import MethodA, repeat_trace, spmv_trace
from repro.machine import scaled_machine
from repro.matrices import banded, random_uniform
from repro.spmv import listing1_policy, no_sector_cache
from tests.oracles.naive import reuse_distances_naive

MACHINE = scaled_machine(16)


def brute_force_misses(matrix, machine, sector1_ways, iterations=2):
    """Fully associative LRU partitions simulated with the naive stack."""
    trace = repeat_trace(spmv_trace(matrix, line_size=machine.line_size)[0], iterations)
    sectors = trace.sectors(listing1_policy(max(sector1_ways, 1)))
    n0, n1 = machine.l2.partition_lines(sector1_ways)
    if sector1_ways == 0:
        rd = reuse_distances_naive(trace.lines)
        capacity = np.full(len(trace), machine.l2.capacity_lines)
    else:
        rd = reuse_distances_naive(trace.lines, sectors.astype(np.int64))
        capacity = np.where(sectors == 1, n1, n0)
    window = trace.iteration == iterations - 1
    return int(np.count_nonzero((rd >= capacity) & window))


@pytest.mark.parametrize("ways", [0, 2, 5])
def test_method_a_matches_brute_force_sequential(ways):
    matrix = random_uniform(600, 6, seed=0)
    model = MethodA(matrix, MACHINE, num_threads=1)
    policy = no_sector_cache() if ways == 0 else listing1_policy(ways)
    assert model.predict(policy).l2_misses == brute_force_misses(matrix, MACHINE, ways)


def test_partitioning_cannot_increase_matrix_data_misses():
    # values/colidx stream regardless: their misses equal the stream count
    matrix = banded(3_000, 60, 40, seed=1)
    model = MethodA(matrix, MACHINE, num_threads=1)
    base = model.predict(no_sector_cache())
    part = model.predict(listing1_policy(5))
    assert part.per_array["values"] == base.per_array["values"]
    assert part.per_array["colidx"] == base.per_array["colidx"]


def test_class2_partitioning_removes_vector_misses():
    # matrix streams, vectors fit partition 0: the class-2 win of Section 3.1
    matrix = banded(3_000, 60, 40, seed=1)
    model = MethodA(matrix, MACHINE, num_threads=1)
    base = model.predict(no_sector_cache())
    part = model.predict(listing1_policy(5))
    assert part.l2_misses < base.l2_misses
    assert part.per_array.get("y", 0) == 0
    assert part.per_array.get("rowptr", 0) == 0
    assert part.per_array.get("x", 0) == 0


def test_parallel_model_covers_all_cmgs():
    matrix = random_uniform(24_000, 8, seed=2)
    model = MethodA(matrix, MACHINE, num_threads=48)
    assert model.num_cmgs_used == 4
    pred = model.predict(no_sector_cache())
    assert pred.l2_misses > 0


def test_policy_validation():
    matrix = banded(200, 5, 4, seed=0)
    model = MethodA(matrix, MACHINE, num_threads=1)
    with pytest.raises(ValueError):
        model.predict(listing1_policy(16))
    with pytest.raises(ValueError):
        MethodA(matrix, MACHINE, num_threads=1000)
    with pytest.raises(ValueError):
        MethodA(matrix, MACHINE, iterations=0)


def test_l1_prediction_is_larger_than_l2():
    matrix = random_uniform(2_000, 8, seed=3)
    model = MethodA(matrix, MACHINE, num_threads=4)
    l1 = model.predict_l1(no_sector_cache()).l2_misses
    l2 = model.predict(no_sector_cache()).l2_misses
    assert l1 >= l2  # the smaller cache can only miss more


def test_cold_misses_counts_distinct_lines():
    matrix = banded(500, 10, 8, seed=4)
    model = MethodA(matrix, MACHINE, num_threads=1)
    trace = spmv_trace(matrix, line_size=MACHINE.line_size)[0]
    assert model.cold_misses() == len(np.unique(trace.lines))


def test_x_traffic_fraction_bounds():
    matrix = random_uniform(3_000, 4, seed=5)
    model = MethodA(matrix, MACHINE, num_threads=1)
    frac = model.x_traffic_fraction(no_sector_cache())
    assert 0.0 <= frac <= 1.0
