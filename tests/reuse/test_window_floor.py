"""The query-aware stack pass: queried dominance counts and window floors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reuse import (
    COLD,
    compute_prev,
    reuse_distances,
    scale_distances,
    steady_state_reuse_distances,
    window_floor,
)
from repro.reuse.cdq import _dominance_counts

#: edge lengths around the CDQ block boundaries, plus arbitrary ones
EDGE_LENGTHS = sorted({0, 1, 2} | {v for k in range(1, 8)
                                   for v in (2**k - 1, 2**k, 2**k + 1)})
lengths = st.one_of(st.sampled_from(EDGE_LENGTHS), st.integers(0, 300))


@st.composite
def traces_with_queries(draw):
    n = draw(lengths)
    alphabet = draw(st.integers(1, max(1, n)))
    trace = np.array(draw(st.lists(st.integers(0, alphabet - 1),
                                   min_size=n, max_size=n)), dtype=np.int64)
    picked = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return trace, np.flatnonzero(np.array(picked, dtype=bool))


@settings(max_examples=300, deadline=None)
@given(traces_with_queries())
def test_queried_counts_equal_the_full_pass(case):
    trace, at = case
    prev = compute_prev(trace)
    np.testing.assert_array_equal(_dominance_counts(prev, at=at),
                                  _dominance_counts(prev)[at])


@pytest.mark.parametrize("n", EDGE_LENGTHS)
def test_every_position_queried_equals_the_full_pass(n):
    prev = compute_prev(np.random.default_rng(n).integers(0, max(1, n // 3), n))
    np.testing.assert_array_equal(_dominance_counts(prev, at=np.arange(n)),
                                  _dominance_counts(prev))


def _windows(lines, groups):
    """Window ``i - prev[i] - 1`` of each access in group-sorted positions,
    aligned with the trace (-1 marks a first access in its group)."""
    order = np.argsort(groups, kind="stable")
    keys = groups[order] * (int(lines.max()) + 1) + lines[order]
    prev = compute_prev(keys)
    sorted_windows = np.where(prev >= 0, np.arange(len(prev)) - prev - 1, -1)
    out = np.empty_like(sorted_windows)
    out[order] = sorted_windows
    return out


@st.composite
def grouped_traces(draw):
    n = draw(st.integers(1, 120))
    lines = np.array(draw(st.lists(st.integers(0, 15), min_size=n, max_size=n)),
                     dtype=np.int64)
    groups = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)),
                      dtype=np.int64)
    return lines, groups, draw(st.integers(0, 40))


def _check_floored(floored, exact, windows, floor, wrap):
    """Exact at or above the floor and on cold/wrap-around references;
    the placeholder 0 below it, where the exact distance is also below."""
    exact_kept = (windows >= floor) | wrap | (exact == COLD)
    np.testing.assert_array_equal(floored[exact_kept], exact[exact_kept])
    assert np.all(floored[~exact_kept] == 0)
    assert np.all(exact[~exact_kept] < floor)


@settings(max_examples=200, deadline=None)
@given(grouped_traces())
def test_floored_pass_is_exact_at_and_above_the_floor(case):
    lines, groups, floor = case
    windows = _windows(lines, groups)
    _check_floored(reuse_distances(lines, groups, window_floor=floor),
                   reuse_distances(lines, groups), windows, floor,
                   wrap=np.zeros(len(lines), dtype=bool))


@settings(max_examples=200, deadline=None)
@given(grouped_traces())
def test_floored_steady_state_keeps_period_first_references_exact(case):
    lines, groups, floor = case
    windows = _windows(lines, groups)
    _check_floored(steady_state_reuse_distances(lines, groups, window_floor=floor),
                   steady_state_reuse_distances(lines, groups), windows, floor,
                   wrap=windows < 0)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 8.0), st.integers(0, 5_000))
def test_window_floor_splits_scaled_hits_from_misses(factor, capacity):
    floor = window_floor(factor, capacity)
    distances = np.arange(max(0, min(floor, 10**6) - 3), min(floor, 10**6) + 3)
    misses = scale_distances(distances, factor) >= capacity
    np.testing.assert_array_equal(misses, distances >= floor)
