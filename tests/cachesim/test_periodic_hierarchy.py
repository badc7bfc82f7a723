"""Periodic fast path of the cache hierarchy vs. the doubled-trace oracle."""

import numpy as np
import pytest

from repro.cachesim.hierarchy import SimConfig, SpMVCacheSim
from repro.cachesim.prefetch import inject_prefetches
from repro.core import concat_traces, repeat_trace, spmv_trace
from repro.machine.a64fx import scaled_machine
from repro.matrices import banded, random_uniform
from repro.parallel import interleave
from repro.spmv import static_schedule
from repro.spmv.sector_policy import SectorPolicy, no_sector_cache
from tests.oracles.doubled import DoubledSim

MACHINE = scaled_machine()

POLICIES = [no_sector_cache()] + [
    SectorPolicy(l2_sector1_ways=l2w, l1_sector1_ways=l1w)
    for l2w in (1, 2, 5, 7)
    for l1w in (0, 1, 2)
]


def _sims(matrix, **overrides):
    base = dict(num_threads=4, iterations=2)
    base.update(overrides)
    fast = SpMVCacheSim(matrix, MACHINE, SimConfig(**base))
    oracle = DoubledSim(matrix, MACHINE, SimConfig(**base))
    assert fast.periodic == (base["iterations"] == 2)
    return fast, oracle


@pytest.mark.parametrize(
    "matrix",
    [banded(48, 3, 4, seed=1), random_uniform(30, 4, seed=2)],
    ids=lambda m: m.name,
)
@pytest.mark.parametrize("d1,d2", [(0, 0), (2, 4), (3, 2)])
def test_events_byte_identical(matrix, d1, d2):
    fast, oracle = _sims(
        matrix, l1_prefetch_distance=d1, l2_prefetch_distance=d2
    )
    for policy in POLICIES:
        assert fast.events(policy) == oracle.events(policy)


def test_small_streams_exercise_wrap_edge_cases():
    # tiny matrix, many threads: per-thread streams of one or two lines, the
    # regime where wrap-around new-line detection and absent ramps matter most
    matrix = banded(10, 1, 1, seed=3)
    fast, oracle = _sims(matrix, num_threads=8, l1_prefetch_distance=3)
    for policy in POLICIES:
        assert fast.events(policy) == oracle.events(policy)


def test_three_iterations_fall_back_to_the_oracle_path():
    matrix = banded(20, 2, 2, seed=4)
    sim, ref = _sims(matrix, num_threads=2, iterations=3)
    assert not sim.periodic  # iteration >= 2 L2 streams are not exactly periodic
    for policy in POLICIES:
        assert sim.events(policy) == ref.events(policy)


def test_single_iteration_simulates_the_cold_pass():
    matrix = random_uniform(24, 3, seed=8)
    sim, ref = _sims(matrix, num_threads=3, iterations=1)
    assert not sim.periodic
    for policy in POLICIES:
        assert sim.events(policy) == ref.events(policy)


def test_periodic_demand_trace_is_one_period():
    matrix = banded(24, 2, 3, seed=5)
    fast, oracle = _sims(matrix, num_threads=2)
    assert 2 * len(fast.demand_trace) == len(oracle.demand_trace)


def test_periodic_injection_matches_doubled_injection():
    # iteration >= 1 of injecting into the doubled trace == periodic injection
    matrix = random_uniform(20, 3, seed=6)
    sched = static_schedule(matrix, 3)
    merged = interleave(spmv_trace(matrix, None, sched, line_size=MACHINE.line_size))
    doubled = inject_prefetches(repeat_trace(merged, 2), 3)
    steady = inject_prefetches(merged.with_iteration(1), 3, periodic=True)
    warm = inject_prefetches(merged, 3)
    joined = concat_traces([warm, steady])
    np.testing.assert_array_equal(joined.lines, doubled.lines)
    np.testing.assert_array_equal(joined.arrays, doubled.arrays)
    np.testing.assert_array_equal(joined.threads, doubled.threads)
    np.testing.assert_array_equal(joined.is_prefetch, doubled.is_prefetch)
    np.testing.assert_array_equal(joined.iteration, doubled.iteration)


def test_single_distinct_line_stream_never_retriggers():
    # a stream whose period holds one distinct line: its wrap predecessor is
    # itself, so steady state injects no prefetch for it at all
    matrix = banded(1, 0, 1, seed=7)
    merged = interleave(
        spmv_trace(matrix, None, static_schedule(matrix, 1), line_size=MACHINE.line_size)
    )
    steady = inject_prefetches(merged.with_iteration(1), 2, periodic=True)
    doubled = inject_prefetches(repeat_trace(merged, 2), 2)
    n = len(merged)
    second_half = doubled.select(doubled.iteration == 1)
    np.testing.assert_array_equal(steady.lines, second_half.lines)
    np.testing.assert_array_equal(steady.is_prefetch, second_half.is_prefetch)
