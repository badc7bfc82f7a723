"""Trace interleaving policies and the MCS collator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MemoryLayout, spmv_trace
from repro.matrices import banded
from repro.parallel import interleave
from repro.spmv import static_schedule
from tests.oracles.mcs import MCSLock, _QNode, collate_fifo


def make_traces(num_threads=3, n=120):
    matrix = banded(n, 4, 5, seed=0)
    layout = MemoryLayout.for_matrix(matrix, 256)
    return spmv_trace(matrix, layout, static_schedule(matrix, num_threads))


def per_thread_order_preserved(merged, originals):
    for t, original in enumerate(originals):
        sub = merged.lines[merged.threads == t]
        np.testing.assert_array_equal(sub, original.lines)


@pytest.mark.parametrize("policy", ["mcs", "block", "random", "sequential"])
def test_policies_preserve_per_thread_order(policy):
    traces = make_traces()
    merged = interleave(traces, policy, block=4, seed=42)
    assert len(merged) == sum(len(t) for t in traces)
    per_thread_order_preserved(merged, traces)


def test_mcs_is_per_access_round_robin():
    traces = make_traces(num_threads=2)
    merged = interleave(traces, "mcs")
    shorter = min(len(t) for t in traces)
    head = merged.threads[: 2 * shorter]
    np.testing.assert_array_equal(head[::2], 0)
    np.testing.assert_array_equal(head[1::2], 1)


def test_sequential_policy_concatenates():
    traces = make_traces(num_threads=2)
    merged = interleave(traces, "sequential")
    boundary = len(traces[0])
    assert np.all(merged.threads[:boundary] == 0)
    assert np.all(merged.threads[boundary:] == 1)


def test_random_policy_is_seeded():
    traces = make_traces()
    a = interleave(traces, "random", seed=7)
    b = interleave(traces, "random", seed=7)
    np.testing.assert_array_equal(a.lines, b.lines)


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        interleave(make_traces(), "bogus")
    with pytest.raises(ValueError):
        interleave(make_traces(), "block", block=0)
    with pytest.raises(ValueError):
        interleave([], "mcs")


def test_interleave_matches_mcs_collation():
    traces = make_traces(num_threads=4)
    merged = interleave(traces, "mcs")
    items, owners = collate_fifo([t.lines for t in traces])
    np.testing.assert_array_equal(merged.lines, items)
    np.testing.assert_array_equal(merged.threads, owners)


def test_mcs_lock_fifo_handoff():
    lock = MCSLock()
    a = lock.acquire(0)
    b = lock.acquire(1)
    c = lock.acquire(2)
    assert lock.holds(a) and not lock.holds(b)
    lock.release(a)
    assert lock.holds(b) and not lock.holds(c)
    lock.release(b)
    lock.release(c)
    assert lock.history == [0, 1, 2]


def test_mcs_release_by_non_holder_rejected():
    lock = MCSLock()
    node = lock.acquire(0)
    with pytest.raises(RuntimeError):
        lock.release(_QNode(thread=9))
    lock.release(node)


@settings(max_examples=40, deadline=None)
@given(
    lengths=st.lists(st.integers(0, 20), min_size=1, max_size=6),
)
def test_collate_fifo_drains_all_streams(lengths):
    streams = [np.arange(n) + 100 * t for t, n in enumerate(lengths)]
    items, owners = collate_fifo(streams)
    assert len(items) == sum(lengths)
    for t, stream in enumerate(streams):
        np.testing.assert_array_equal(items[owners == t], stream)


def random_policy_reference(traces, seed):
    """The pre-vectorization random merge: per-thread sorted uniform draws."""
    from repro.core import concat_traces

    merged = concat_traces(traces)
    threads = merged.threads.astype(np.int64)
    rng = np.random.default_rng(seed)
    keys = rng.random(len(merged))
    for t in np.unique(threads):
        mask = threads == t
        keys[mask] = np.sort(keys[mask])
    return merged.reorder(np.argsort(keys, kind="stable"))


@pytest.mark.parametrize("seed", [0, 7, 123])
@pytest.mark.parametrize("num_threads", [1, 2, 5])
def test_vectorized_random_matches_per_thread_loop(seed, num_threads):
    traces = make_traces(num_threads=num_threads)
    merged = interleave(traces, "random", seed=seed)
    reference = random_policy_reference(traces, seed)
    np.testing.assert_array_equal(merged.lines, reference.lines)
    np.testing.assert_array_equal(merged.threads, reference.threads)
    np.testing.assert_array_equal(merged.arrays, reference.arrays)
