"""The temporal reuse-distance sampling oracle."""

import numpy as np
import pytest

from repro.reuse import ReuseProfile, reuse_distances
from tests.oracles.sampling import sample_reuse_distances


def test_rate_one_is_exact():
    rng = np.random.default_rng(0)
    trace = rng.integers(0, 40, 2000)
    exact = ReuseProfile.from_distances(reuse_distances(trace))
    sampled = sample_reuse_distances(trace, rate=1.0)
    for capacity in (1, 5, 20, 60):
        assert sampled.misses(capacity) == pytest.approx(exact.misses(capacity))


def test_sampling_estimates_within_tolerance():
    rng = np.random.default_rng(1)
    trace = rng.integers(0, 100, 20_000)
    exact = ReuseProfile.from_distances(reuse_distances(trace))
    sampled = sample_reuse_distances(trace, rate=0.1, seed=2)
    for capacity in (10, 50, 120):
        true = exact.misses(capacity)
        estimate = sampled.misses(capacity)
        err = sampled.standard_error(capacity)
        assert abs(estimate - true) < 5 * err + 1


def test_groups_respected():
    trace = np.array([0, 0, 0, 0])
    groups = np.array([0, 1, 0, 1])
    sampled = sample_reuse_distances(trace, rate=1.0, groups=groups)
    # within each group: one cold + one distance-0 reuse
    assert sampled.misses(1) == pytest.approx(2)  # only the colds miss


def test_miss_ratio_clamped():
    trace = np.arange(100)  # all cold
    sampled = sample_reuse_distances(trace, rate=0.5, seed=3)
    assert 0.0 <= sampled.miss_ratio(10) <= 1.0


def test_empty_trace():
    sampled = sample_reuse_distances(np.empty(0, dtype=np.int64), rate=0.5)
    assert sampled.misses(4) == 0
    assert sampled.miss_ratio(4) == 0.0


def test_invalid_rate_rejected():
    with pytest.raises(ValueError):
        sample_reuse_distances(np.array([1]), rate=0.0)
    with pytest.raises(ValueError):
        sample_reuse_distances(np.array([1]), rate=1.5)


def test_deterministic_given_seed():
    rng = np.random.default_rng(4)
    trace = rng.integers(0, 30, 1000)
    a = sample_reuse_distances(trace, rate=0.2, seed=7)
    b = sample_reuse_distances(trace, rate=0.2, seed=7)
    np.testing.assert_array_equal(a.profile.sorted_rd, b.profile.sorted_rd)
