"""Tree-PLRU cache: unit behaviour and comparison with LRU."""

import numpy as np
import pytest

from repro.cachesim import simulate
from repro.core import MemoryLayout
from repro.core.trace import MemoryTrace
from repro.machine.a64fx import CacheGeometry
from repro.matrices import random_uniform
from repro.spmv import listing1_policy
from tests.oracles.plru import PLRUCache, TreePLRU, events_from_hits, simulate_plru


def test_tree_plru_points_away_from_touched_way():
    tree = TreePLRU(4)
    tree.touch(0)
    assert tree.victim() != 0
    tree.touch(tree.victim())
    tree.touch(1)
    assert tree.victim() not in (1,)


def test_tree_plru_cycles_through_all_ways():
    tree = TreePLRU(8)
    victims = []
    for _ in range(8):
        v = tree.victim()
        victims.append(v)
        tree.touch(v)
    assert sorted(victims) == list(range(8))


def test_tree_plru_limit_restricts_victims():
    tree = TreePLRU(4)
    for _ in range(20):
        v = tree.victim(limit=3)
        assert v < 3
        tree.touch(v)


def test_tree_plru_validation():
    with pytest.raises(ValueError):
        TreePLRU(3)
    tree = TreePLRU(4)
    with pytest.raises(ValueError):
        tree.touch(4)
    with pytest.raises(ValueError):
        tree.victim(limit=0)


def test_plru_cache_basic_hits_and_misses():
    geometry = CacheGeometry(line_size=256, num_sets=1, ways=4)
    cache = PLRUCache(geometry)
    assert not cache.access(0)
    assert cache.access(0)
    for line in (1, 2, 3):
        cache.access(line)
    assert cache.access(0)  # still resident: 4 distinct lines in 4 ways
    cache.access(4)  # evicts something
    residents = sum(cache.access(l) for l in (0, 1, 2, 3, 4))
    assert residents >= 3  # exactly one line was evicted before re-touching


def test_plru_sector_partition_isolates_streams():
    geometry = CacheGeometry(line_size=256, num_sets=1, ways=4)
    cache = PLRUCache(geometry, sector1_ways=2)
    # stream through sector 1: must not evict sector-0 residents
    cache.access(100, sector=0)
    cache.access(101, sector=0)
    for line in range(20):
        cache.access(line, sector=1)
    assert cache.access(100, sector=0)
    assert cache.access(101, sector=0)


def test_plru_equals_lru_for_two_ways():
    # with 2 ways, tree-PLRU degenerates to exact LRU
    geometry = CacheGeometry(line_size=256, num_sets=4, ways=2)
    rng = np.random.default_rng(0)
    lines = rng.integers(0, 32, 400)
    layout = MemoryLayout.for_matrix(random_uniform(16, 2, seed=0), 256)
    trace = MemoryTrace(
        lines, np.zeros(400, dtype=np.int8), np.zeros(400, dtype=np.int32), layout
    )
    sectors = np.zeros(400, dtype=np.int8)
    plru_hits = simulate_plru(trace, geometry, sectors, 0)
    lru = simulate(trace, geometry, listing1_policy(1))
    np.testing.assert_array_equal(plru_hits, lru.hit_mask(0))


def test_plru_close_to_lru_for_high_associativity():
    # the paper's Eq. (1) argument: LRU approximates PLRU well
    geometry = CacheGeometry(line_size=256, num_sets=8, ways=16)
    rng = np.random.default_rng(1)
    lines = rng.integers(0, 400, 3000)
    layout = MemoryLayout.for_matrix(random_uniform(16, 2, seed=0), 256)
    trace = MemoryTrace(
        lines, np.zeros(3000, dtype=np.int8), np.zeros(3000, dtype=np.int32), layout
    )
    sectors = np.zeros(3000, dtype=np.int8)
    plru_miss = float((~simulate_plru(trace, geometry, sectors, 0)).mean())
    lru_miss = float(simulate(trace, geometry, listing1_policy(1)).miss_mask(0).mean())
    assert abs(plru_miss - lru_miss) / lru_miss < 0.08


def test_events_from_hits_classifies_fills():
    layout = MemoryLayout.for_matrix(random_uniform(16, 2, seed=0), 256)
    lines = np.array([0, 0, 1])
    trace = MemoryTrace(
        lines,
        np.zeros(3, dtype=np.int8),
        np.zeros(3, dtype=np.int32),
        layout,
        np.array([False, False, True]),
    )
    hits = np.array([False, True, False])
    events = events_from_hits(trace, hits)
    assert events.l2_refill == 2
    assert events.l2_refill_demand == 1
    assert events.l2_refill_prefetch == 1


def test_plru_cache_validation():
    geometry = CacheGeometry(line_size=256, num_sets=2, ways=4)
    with pytest.raises(ValueError):
        PLRUCache(geometry, sector1_ways=4)
