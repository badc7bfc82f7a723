"""Vectorized set-associative LRU vs. a brute-force per-set LRU oracle
and vs. exact (unfloored) in-set distances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim import simulate
from repro.cachesim.setassoc import set_index
from repro.core import MemoryLayout, spmv_trace
from repro.core.trace import MemoryTrace
from repro.machine.a64fx import CacheGeometry
from repro.matrices import random_uniform
from repro.spmv import listing1_policy
from tests.oracles.doubled import set_distances, set_misses


def brute_force_lru(lines, sets, ways_of_ref, sectors, cache_ids):
    """Dict-of-lists LRU, victim = least recently used within (set, sector)."""
    stacks: dict[tuple, list] = {}
    hits = np.zeros(len(lines), dtype=bool)
    idx = set_index(np.asarray(lines), sets)
    for i, line in enumerate(lines):
        key = (int(cache_ids[i]), int(idx[i]), int(sectors[i]))
        stack = stacks.setdefault(key, [])
        ways = int(ways_of_ref[i])
        if line in stack:
            pos = stack.index(line)
            hits[i] = pos < ways
            del stack[pos]
        stack.insert(0, line)
        del stack[ways * 4 :]  # bound memory; far beyond any way count
    return hits


def make_trace(lines, threads=None):
    lines = np.asarray(lines, dtype=np.int64)
    n = len(lines)
    layout = MemoryLayout.for_matrix(random_uniform(16, 2, seed=0), 256)
    return MemoryTrace(
        lines,
        np.zeros(n, dtype=np.int8),
        np.zeros(n, dtype=np.int32) if threads is None else np.asarray(threads),
        layout,
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 5000),
    sets=st.sampled_from([2, 4, 8]),
    ways=st.sampled_from([2, 4]),
    split=st.integers(0, 3),
)
def test_matches_brute_force_lru(seed, sets, ways, split):
    if split >= ways:
        split = 0
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 300))
    lines = rng.integers(0, sets * ways * 3, n)
    sectors = rng.integers(0, 2, n).astype(np.int8)
    cache_ids = rng.integers(0, 2, n)
    geometry = CacheGeometry(line_size=256, num_sets=sets, ways=ways)
    trace = make_trace(lines)
    sim = simulate(trace, geometry, listing1_policy(1), cache_ids=cache_ids)
    object.__setattr__(sim, "sectors", sectors)  # randomized sector labels
    got = sim.hit_mask(split)
    if split == 0:
        ways_of_ref = np.full(n, ways)
        sector_key = np.zeros(n, dtype=np.int8)
    else:
        ways_of_ref = np.where(sectors == 1, split, ways - split)
        sector_key = sectors
    expected = brute_force_lru(lines, sets, ways_of_ref, sector_key, cache_ids)
    np.testing.assert_array_equal(got, expected)


def test_hit_mask_validates_way_split():
    geometry = CacheGeometry(line_size=256, num_sets=4, ways=4)
    trace = make_trace([0, 1, 2])
    sim = simulate(trace, geometry, listing1_policy(1))
    with pytest.raises(ValueError):
        sim.hit_mask(4)
    with pytest.raises(ValueError):
        sim.hit_mask(-1)


def test_one_rd_pass_serves_every_way_split():
    rng = np.random.default_rng(7)
    lines = rng.integers(0, 600, 5000)
    geometry = CacheGeometry(line_size=256, num_sets=8, ways=8)
    matrix = random_uniform(200, 4, seed=1)
    trace = spmv_trace(matrix, MemoryLayout.for_matrix(matrix, 256))[0]
    sim = simulate(trace, geometry, listing1_policy(1))
    masks = {w: sim.hit_mask(w) for w in range(0, 8)}
    # partitioned reuse distances computed once: cache holds two entries
    assert set(sim._cache) == {"shared", "split"}
    # more sector-1 ways can only help sector-1 references
    sector1 = sim.sectors == 1
    for w in range(2, 8):
        assert np.all(masks[w][sector1] >= masks[w - 1][sector1])


def test_set_index_is_deterministic_permutation_per_block():
    sets = 128
    lines = np.arange(sets * 16, dtype=np.int64)
    idx = set_index(lines, sets)
    assert idx.min() >= 0 and idx.max() < sets
    # every aligned block of `sets` consecutive lines covers all sets
    for block in range(16):
        chunk = idx[block * sets : (block + 1) * sets]
        assert len(np.unique(chunk)) == sets


def test_set_index_breaks_stride_phase_locking():
    # two streams offset by exactly num_sets lines must not collide forever
    sets = 128
    a = set_index(np.arange(0, 4 * sets, dtype=np.int64), sets)
    b = set_index(np.arange(sets, 5 * sets, dtype=np.int64), sets)
    collisions = float((a == b).mean())
    assert collisions < 0.25  # plain modulo would give 1.0


def _random_trace(rng, n, num_lines, num_threads):
    layout = MemoryLayout.for_matrix(random_uniform(16, 2, seed=0), 256)
    return MemoryTrace(
        rng.integers(0, num_lines, n),
        rng.integers(0, 5, n).astype(np.int8),  # every array, both sectors
        rng.integers(0, num_threads, n).astype(np.int32),
        layout,
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    sets=st.sampled_from([1, 2, 8]),
    ways=st.sampled_from([2, 4, 16]),
    periodic=st.booleans(),
)
def test_floored_hit_masks_equal_the_exact_pass_at_every_split(seed, sets, ways, periodic):
    """The shared and split passes run with window floors; at every legal
    way split their masks equal those of exact in-set distances, cold
    and in steady state (``first_trace``) alike."""
    rng = np.random.default_rng(seed)
    geometry = CacheGeometry(line_size=256, num_sets=sets, ways=ways)
    num_lines = int(rng.integers(1, 4 * sets * ways))
    trace = _random_trace(rng, int(rng.integers(1, 400)), num_lines, 3)
    policy = listing1_policy(1)
    first = _random_trace(rng, int(rng.integers(0, 400)), num_lines, 3) if periodic else None
    sim = simulate(trace, geometry, policy, cache_ids=trace.threads.astype(np.int64),
                   first_trace=first,
                   first_cache_ids=None if first is None else first.threads.astype(np.int64))
    # the exact reference: in-set distances of [first, trace] (or of the
    # trace alone), read off the trace's references
    full = trace if first is None else MemoryTrace(
        np.concatenate([first.lines, trace.lines]),
        np.concatenate([first.arrays, trace.arrays]),
        np.concatenate([first.threads, trace.threads]),
        trace.layout,
    )
    tail = slice(len(full) - len(trace), None)
    sectors = full.sectors(policy)
    cache_ids = full.threads.astype(np.int64)
    for split in range(ways):
        rd = set_distances(full, geometry, sectors, cache_ids, split=bool(split))
        expected = ~set_misses(rd, geometry, sectors, split)[tail]
        np.testing.assert_array_equal(sim.hit_mask(split), expected)
