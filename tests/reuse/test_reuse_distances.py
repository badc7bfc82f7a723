"""Cross-validation of the four reuse-distance implementations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reuse import COLD, reuse_distances
from tests.oracles.fenwick import reuse_distances_fenwick
from tests.oracles.kim import reuse_distances_kim
from tests.oracles.naive import reuse_distances_naive

ALL_IMPLEMENTATIONS = [
    reuse_distances,
    reuse_distances_fenwick,
    lambda t, g=None: reuse_distances_kim(t, g, group_size=1),
]


def test_empty_trace():
    for impl in ALL_IMPLEMENTATIONS:
        assert impl(np.empty(0, dtype=np.int64)).shape == (0,)


def test_single_access_is_cold():
    for impl in ALL_IMPLEMENTATIONS:
        assert impl(np.array([7]))[0] == COLD


def test_immediate_reuse_has_distance_zero():
    rd = reuse_distances(np.array([3, 3, 3]))
    assert rd.tolist() == [COLD, 0, 0]


def test_textbook_example():
    # a b c a: the second access to a saw 2 distinct lines in between
    rd = reuse_distances(np.array([0, 1, 2, 0]))
    assert rd.tolist() == [COLD, COLD, COLD, 2]


def test_repeated_scan_distances_equal_working_set():
    # scanning N lines twice: second pass distances are all N-1
    n = 100
    trace = np.concatenate([np.arange(n), np.arange(n)])
    rd = reuse_distances(trace)
    assert np.all(rd[:n] == COLD)
    assert np.all(rd[n:] == n - 1)


def test_groups_isolate_stacks():
    # identical traces in two groups never see each other
    trace = np.array([0, 1, 0, 1])
    groups = np.array([0, 1, 0, 1])
    rd = reuse_distances(trace, groups)
    assert rd.tolist() == [COLD, COLD, 0, 0]


def test_group_reorder_restores_original_positions():
    trace = np.array([5, 5, 9, 5, 9])
    groups = np.array([1, 0, 1, 1, 1])
    rd = reuse_distances(trace, groups)
    # group 1 sees 5 . 9 5 9; group 0 sees one cold 5
    assert rd[1] == COLD
    assert rd[0] == COLD and rd[2] == COLD
    assert rd[3] == 1 and rd[4] == 1


def test_rejects_negative_lines_and_bad_groups():
    with pytest.raises(ValueError):
        reuse_distances(np.array([-1, 2]))
    with pytest.raises(ValueError):
        reuse_distances(np.array([1, 2]), np.array([0]))
    with pytest.raises(ValueError):
        reuse_distances(np.array([1, 2]), np.array([0, -2]))


@settings(max_examples=150, deadline=None)
@given(
    trace=st.lists(st.integers(0, 9), min_size=1, max_size=120),
    use_groups=st.booleans(),
    data=st.data(),
)
def test_all_implementations_agree(trace, use_groups, data):
    trace = np.array(trace, dtype=np.int64)
    groups = None
    if use_groups:
        groups = np.array(
            data.draw(
                st.lists(
                    st.integers(0, 3),
                    min_size=len(trace),
                    max_size=len(trace),
                )
            ),
            dtype=np.int64,
        )
    expected = reuse_distances_naive(trace, groups)
    for impl in ALL_IMPLEMENTATIONS:
        np.testing.assert_array_equal(impl(trace, groups), expected)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_cdq_matches_fenwick_on_large_random_traces(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(200, 2000))
    trace = rng.integers(0, rng.integers(2, 200), n)
    groups = rng.integers(0, 5, n)
    np.testing.assert_array_equal(
        reuse_distances(trace, groups), reuse_distances_fenwick(trace, groups)
    )


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 7, 9, 17, 31, 33, 63, 65, 100, 255, 257])
def test_cdq_exact_on_non_power_of_two_lengths(n):
    # regression for the partial-block CDQ: every trailing-block shape must
    # agree with the naive stack, not just power-of-two trace lengths
    rng = np.random.default_rng(n)
    trace = rng.integers(0, max(2, n // 3), n)
    groups = rng.integers(0, 3, n)
    np.testing.assert_array_equal(
        reuse_distances(trace), reuse_distances_naive(trace)
    )
    np.testing.assert_array_equal(
        reuse_distances(trace, groups), reuse_distances_naive(trace, groups)
    )


def test_kim_bucketed_distances_bounded_error():
    # with group_size g, the reported distance is exact to within g/2
    rng = np.random.default_rng(0)
    trace = rng.integers(0, 50, 2000)
    exact = reuse_distances(trace)
    approx = reuse_distances_kim(trace, group_size=8)
    finite = exact < COLD
    assert np.array_equal(finite, approx < COLD)
    assert np.max(np.abs(exact[finite] - approx[finite])) <= 8


def test_kim_rejects_bad_group_size():
    with pytest.raises(ValueError):
        reuse_distances_kim(np.array([1]), group_size=0)
