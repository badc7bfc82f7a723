"""Profile-backed policy queries vs. the full-trace mask sweep.

The O(log n) query layer (per-array ReuseProfiles over window-floored
passes of the period) must reproduce the O(n) boolean-mask evaluation of
:mod:`tests.oracles.masked` over exact passes bit-for-bit: same total
misses, same per-array breakdown, for every grouping (L2 shared, L2
partitioned, L1 private, L1 partitioned), policy and way split.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CacheMissModel, MethodA
from repro.core.method_b import MethodB
from repro.machine import scaled_machine
from repro.matrices import banded, power_law, random_uniform
from repro.reuse import ReuseProfile, scale_distances
from repro.spmv import SectorPolicy, no_sector_cache
from tests.oracles.masked import (
    cold_misses_masked,
    exact_distances,
    predict_l1_masked,
    predict_masked,
)

MACHINE = scaled_machine(16)


def _policy(l2w: int, l1w: int) -> SectorPolicy:
    if l2w == 0 and l1w == 0:
        return no_sector_cache()
    return SectorPolicy(l2_sector1_ways=l2w, l1_sector1_ways=l1w)


def _matrix(family: int, n: int, npr: int, seed: int):
    if family == 0:
        return random_uniform(n, npr, seed=seed)
    if family == 1:
        return banded(n, max(2, n // 10), npr, seed=seed)
    return power_law(n, float(npr), 2.0, seed=seed)


@settings(max_examples=20, deadline=None)
@given(
    family=st.integers(0, 2),
    n=st.integers(50, 400),
    npr=st.integers(1, 10),
    seed=st.integers(0, 2**16),
    l2w=st.sampled_from([0, 2, 3, 4, 5, 6, 7]),
    l1w=st.sampled_from([0, 1, 2, 3]),
    threads=st.sampled_from([1, 4, 12]),
)
def test_predict_matches_full_mask(family, n, npr, seed, l2w, l1w, threads):
    matrix = _matrix(family, n, npr, seed)
    model = MethodA(matrix, MACHINE, num_threads=threads)
    policy = _policy(l2w, l1w)

    fast, slow = model.predict(policy), predict_masked(model, policy)
    assert fast.l2_misses == slow.l2_misses
    assert fast.per_array == slow.per_array

    fast, slow = model.predict_l1(policy), predict_l1_masked(model, policy)
    assert fast.l2_misses == slow.l2_misses
    assert fast.per_array == slow.per_array


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(100, 500),
    npr=st.integers(1, 8),
    seed=st.integers(0, 2**16),
)
def test_cold_misses_match_full_mask(n, npr, seed):
    matrix = random_uniform(n, npr, seed=seed)
    model = MethodA(matrix, MACHINE, num_threads=1)
    assert model.cold_misses() == cold_misses_masked(model)


def test_way_sweep_matches_mask_for_all_splits():
    matrix = banded(2_000, 80, 12, seed=7)
    model = MethodA(matrix, MACHINE, num_threads=48)
    for l2w in (0, 2, 3, 4, 5, 6, 7):
        for l1w in (0, 1, 2, 3):
            policy = _policy(l2w, l1w)
            assert (
                model.predict(policy).per_array
                == predict_masked(model, policy).per_array
            )
            assert (
                model.predict_l1(policy).per_array
                == predict_l1_masked(model, policy).per_array
            )


@pytest.mark.parametrize("iterations", [1, 2])
@pytest.mark.parametrize("threads", [1, 13])
def test_floored_passes_match_the_exact_oracle_at_every_legal_split(threads, iterations):
    # x reuse spans far more than one L2 way (128 lines) and less than the
    # whole L2, so a floor above a split's smallest sector would show
    matrix = random_uniform(6_000, 4, seed=21)
    model = MethodA(matrix, MACHINE, num_threads=threads, iterations=iterations)
    for l2w in range(MACHINE.l2.ways):
        policy = _policy(l2w, 0)
        fast, slow = model.predict(policy), predict_masked(model, policy)
        assert (fast.l2_misses, fast.per_array) == (slow.l2_misses, slow.per_array), l2w
    for l1w in range(MACHINE.l1.ways):
        policy = _policy(0, l1w)
        fast, slow = model.predict_l1(policy), predict_l1_masked(model, policy)
        assert (fast.l2_misses, fast.per_array) == (slow.l2_misses, slow.per_array), l1w
    # the floors did skip counting: some distances are placeholders
    assert np.any(model._rd_partitioned != exact_distances(model, "l2", split=True))
    assert np.any(model._rd_shared != exact_distances(model, "l2", split=False))


def test_method_b_profile_cache_matches_direct_computation():
    matrix = random_uniform(3_000, 6, seed=11)
    model = MethodB(matrix, MACHINE, num_threads=8)
    for scale in (1.0, model.s1, model.s2):
        for capacity in (0, 16, 256, MACHINE.l2.capacity_lines):
            direct = ReuseProfile.from_distances(
                scale_distances(model._x_rd, scale)
            ).misses(capacity)
            assert model.x_misses(scale, capacity) == direct
    # repeated queries hit the materialized profile, not a fresh sort
    assert len(model._profile_cache) == 3


def test_facade_sweep_matches_individual_predictions():
    matrix = random_uniform(1_500, 5, seed=3)
    model = CacheMissModel(matrix, MACHINE, num_threads=8)
    policies = [_policy(l2w, 0) for l2w in (0, 2, 5, 7)]
    for method in ("A", "B"):
        swept = model.sweep(policies, method)
        single = [model.predict(p, method) for p in policies]
        assert [p.l2_misses for p in swept] == [p.l2_misses for p in single]
    swept_l1 = model.sweep_l1(policies, "A")
    assert [p.l2_misses for p in swept_l1] == [
        model.predict_l1(p, "A").l2_misses for p in policies
    ]


def test_profiles_cover_whole_window():
    # every reference of the period lands in exactly one per-array bucket
    matrix = random_uniform(800, 4, seed=5)
    model = MethodA(matrix, MACHINE, num_threads=4)
    total = sum(p.num_accesses for p in model._profiles_shared)
    assert total == len(model.trace)
