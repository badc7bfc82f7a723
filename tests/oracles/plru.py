"""Sequential set-associative cache with tree-PLRU replacement.

The A64FX's replacement policy is undisclosed; the paper assumes a
pseudo-LRU.  This reference simulator implements classic tree-PLRU (a
binary decision tree per set pointing away from recently used ways) with
way-based sector partitioning: each sector owns a contiguous way range and
its own decision bits, so victims are always chosen inside the sector of
the incoming line — the semantics of the A64FX sector cache.

It is O(1) per access but runs a Python loop per reference, so it serves as
ground truth for the vectorized LRU simulator
(:func:`repro.cachesim.simulate`) on small traces, not for full sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cachesim.events import CacheEvents, per_array_counts
from repro.core.trace import MemoryTrace
from repro.machine.a64fx import CacheGeometry


class TreePLRU:
    """PLRU decision bits over ``ways`` ways (power of two)."""

    def __init__(self, ways: int) -> None:
        if ways <= 0 or ways & (ways - 1):
            raise ValueError(f"tree-PLRU needs a power-of-two way count, got {ways}")
        self.ways = ways
        self.bits = [0] * (ways - 1)  # heap-ordered internal nodes

    def victim(self, limit: int | None = None) -> int:
        """Way the decision bits point at, restricted to ways ``< limit``.

        Sector partitions need not be powers of two; the tree is sized to
        the next power of two and leaves beyond ``limit`` are treated as
        permanently absent (the descent is forced away from them).
        """
        limit = self.ways if limit is None else limit
        if not 0 < limit <= self.ways:
            raise ValueError(f"limit must be in [1, {self.ways}], got {limit}")
        node, lo, hi = 0, 0, self.ways
        while node < self.ways - 1:
            mid = (lo + hi) // 2
            go_right = self.bits[node] == 1
            if go_right and mid >= limit:
                go_right = False  # right subtree holds no valid way
            if go_right:
                node, lo = 2 * node + 2, mid
            else:
                node, hi = 2 * node + 1, mid
        return node - (self.ways - 1)

    def touch(self, way: int) -> None:
        """Flip the path bits to point away from ``way``."""
        if not 0 <= way < self.ways:
            raise ValueError(f"way {way} out of range")
        node = way + self.ways - 1
        while node:
            parent = (node - 1) // 2
            self.bits[parent] = 0 if node == 2 * parent + 2 else 1
            node = parent


@dataclass
class _SectorState:
    """Tags and PLRU bits of one sector's way range within one set."""

    tags: list
    plru: TreePLRU


class PLRUCache:
    """One sector-partitioned, set-associative cache with tree-PLRU."""

    def __init__(self, geometry: CacheGeometry, sector1_ways: int = 0) -> None:
        if not 0 <= sector1_ways < geometry.ways:
            raise ValueError(
                f"sector1_ways must be in [0, {geometry.ways}), got {sector1_ways}"
            )
        self.geometry = geometry
        self.sector1_ways = sector1_ways
        splits = (
            (geometry.ways,) if sector1_ways == 0 else (geometry.ways - sector1_ways, sector1_ways)
        )
        self._sets: list[list[_SectorState]] = [
            [_SectorState([None] * w, TreePLRU(_pow2_ceil(w))) for w in splits]
            for _ in range(geometry.num_sets)
        ]

    def access(self, line: int, sector: int = 0) -> bool:
        """Access a line; returns True on hit.  Misses fill the line."""
        sets = self.geometry.num_sets
        index = (line ^ (line // sets) ^ (line // (sets * sets))) % sets
        state = self._sets[index][sector if self.sector1_ways else 0]
        tag = line  # full line id as tag: unique within and across sets
        try:
            way = state.tags.index(tag)
        except ValueError:
            way = self._choose_victim(state)
            state.tags[way] = tag
            state.plru.touch(way)
            return False
        state.plru.touch(way)
        return True

    @staticmethod
    def _choose_victim(state: _SectorState) -> int:
        # prefer an invalid way; otherwise follow the PLRU bits restricted
        # to the sector's real way count
        for way, tag in enumerate(state.tags):
            if tag is None:
                return way
        return state.plru.victim(limit=len(state.tags))


def _pow2_ceil(n: int) -> int:
    return 1 << (n - 1).bit_length() if n > 1 else 1


def simulate_plru(
    trace: MemoryTrace,
    geometry: CacheGeometry,
    sectors: np.ndarray,
    sector1_ways: int,
    cache_ids: np.ndarray | None = None,
) -> np.ndarray:
    """Per-reference hit mask under tree-PLRU (sequential reference path)."""
    n = len(trace)
    sectors = np.asarray(sectors, dtype=np.int8)
    if cache_ids is None:
        cache_ids = np.zeros(n, dtype=np.int64)
    caches: dict[int, PLRUCache] = {}
    hits = np.zeros(n, dtype=bool)
    for i in range(n):
        cid = int(cache_ids[i])
        cache = caches.get(cid)
        if cache is None:
            cache = PLRUCache(geometry, sector1_ways)
            caches[cid] = cache
        hits[i] = cache.access(int(trace.lines[i]), int(sectors[i]))
    return hits


def events_from_hits(
    trace: MemoryTrace, hits: np.ndarray, level: str = "l2"
) -> CacheEvents:
    """Aggregate a hit mask into PMU-style events (single-level view)."""
    miss = ~hits
    demand_miss = miss & ~trace.is_prefetch
    prefetch_fill = miss & trace.is_prefetch
    dirty_miss = miss & trace.array_mask("y")
    if level == "l1":
        return CacheEvents(l1_refill=int(miss.sum()))
    return CacheEvents(
        l2_refill=int(miss.sum()),
        l2_refill_demand=int(demand_miss.sum()),
        l2_refill_prefetch=int(prefetch_fill.sum()),
        l2_writeback=int(dirty_miss.sum()),
        per_array_l2_misses=per_array_counts(trace.arrays, miss),
    )
