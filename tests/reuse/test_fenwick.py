"""compute_prev, stable_order and the Fenwick-tree oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reuse import compute_prev
from repro.reuse.fenwick import stable_order
from tests.oracles.fenwick import FenwickTree, reuse_distances_fenwick


def test_fenwick_prefix_sums_match_numpy():
    rng = np.random.default_rng(0)
    values = rng.integers(-5, 6, 64)
    tree = FenwickTree(64)
    for i, v in enumerate(values):
        tree.add(i, int(v))
    cum = np.cumsum(values)
    for i in range(65):
        expected = 0 if i == 0 else int(cum[i - 1])
        assert tree.prefix_sum(i) == expected


def test_fenwick_range_sum():
    tree = FenwickTree(10)
    for i in range(10):
        tree.add(i, 1)
    assert tree.range_sum(2, 7) == 5
    assert tree.range_sum(0, 10) == 10
    assert tree.range_sum(5, 5) == 0


def test_fenwick_bounds_checking():
    tree = FenwickTree(4)
    with pytest.raises(IndexError):
        tree.add(4, 1)
    with pytest.raises(IndexError):
        tree.add(-1, 1)
    with pytest.raises(ValueError):
        FenwickTree(-1)


def test_fenwick_prefix_sum_clamps_out_of_range_counts():
    tree = FenwickTree(3)
    tree.add(0, 5)
    assert tree.prefix_sum(100) == 5
    assert tree.prefix_sum(-2) == 0


def test_fenwick_rejects_overflowing_group_line_keys():
    # groups[order] * span + trace[order] must not wrap int64 (the CDQ
    # engine already guards this; the Fenwick path needs the same guard)
    trace = np.array([0, 2**40], dtype=np.int64)
    groups = np.array([0, 2**30], dtype=np.int64)
    with pytest.raises(ValueError, match="too large"):
        reuse_distances_fenwick(trace, groups)


def test_fenwick_accepts_large_but_safe_keys():
    trace = np.array([0, 5, 0, 5], dtype=np.int64)
    groups = np.array([0, 1, 0, 1], dtype=np.int64)
    rd = reuse_distances_fenwick(trace, groups)
    assert rd[2] == 0 and rd[3] == 0


def test_compute_prev_basic():
    prev = compute_prev(np.array([4, 7, 4, 4, 7]))
    assert prev.tolist() == [-1, -1, 0, 2, 1]


def test_compute_prev_empty():
    assert compute_prev(np.empty(0, dtype=np.int64)).shape == (0,)


@settings(max_examples=100, deadline=None)
@given(keys=st.lists(st.integers(0, 8), max_size=100))
def test_compute_prev_matches_dict_scan(keys):
    keys = np.array(keys, dtype=np.int64)
    expected = np.full(len(keys), -1, dtype=np.int64)
    last: dict[int, int] = {}
    for i, k in enumerate(keys.tolist()):
        if k in last:
            expected[i] = last[k]
        last[k] = i
    np.testing.assert_array_equal(compute_prev(keys), expected)


@pytest.mark.parametrize("span", [0, 2**16 - 1, 2**16, 2**32 - 1, 2**32])
@pytest.mark.parametrize("low", [0, -7, -(2**40)])
def test_stable_order_is_stable_argsort_across_radix_widths(span, low):
    # few distinct keys, so ties (whose input order must be kept) abound,
    # and both ends of the range occur
    rng = np.random.default_rng(span % 1000 + 3)
    picks = np.array([0, span, span // 2, span // 3, 1 if span else 0], dtype=np.int64)
    keys = low + picks[rng.integers(0, picks.size, 5000)]
    keys[:2] = low, low + span
    np.testing.assert_array_equal(stable_order(keys), np.argsort(keys, kind="stable"))


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64])
@pytest.mark.parametrize("n", [0, 1, 2, 1000])
def test_stable_order_handles_short_and_narrow_keys(dtype, n):
    keys = np.random.default_rng(n).integers(-100, 100, n).astype(dtype)
    order = stable_order(keys)
    np.testing.assert_array_equal(order, np.argsort(keys, kind="stable"))
    assert order.dtype == np.intp


@settings(max_examples=100, deadline=None)
@given(keys=st.lists(st.integers(-(2**40), 2**40), max_size=200),
       shift=st.integers(0, 40))
def test_stable_order_matches_stable_argsort(keys, shift):
    keys = np.array(keys, dtype=np.int64) >> shift
    np.testing.assert_array_equal(stable_order(keys),
                                  np.argsort(keys, kind="stable"))
