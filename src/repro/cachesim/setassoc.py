"""Vectorized set-associative LRU cache simulation.

Simulation is reduced to segmented reuse distance: stable-sorting a trace by
(cache id, set index, sector) makes each set's accesses contiguous, and a
reference hits iff its in-set stack distance is below the number of ways its
sector owns.  One reuse-distance pass therefore evaluates *every* way split
of the sector cache at once, and any number of private caches or CMG
segments simulate together through composite group keys.

Both passes carry a window floor (:mod:`repro.reuse.cdq`) derived from
the geometry alone: the shared pass is only ever asked ``rd < ways`` and
the split pass ``rd < w`` for some ``w >= 1`` (every legal split leaves
each sector at least one way), so a reference whose in-set window is
below that floor hits at every split and is decided without counting.
The distances of such references are placeholders; only the hit masks
are exact.  The exact in-set distances live in ``tests/oracles/``.

True LRU stands in for the A64FX's undisclosed (pseudo-)LRU policy — the
same approximation the paper makes for its model (Section 2.2); the
sequential tree-PLRU oracle in ``tests/oracles/plru.py`` quantifies the
difference on small traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.trace import MemoryTrace
from ..machine.a64fx import CacheGeometry
from ..obs.tracer import span as obs_span
from ..reuse.cdq import reuse_distances
from ..reuse.periodic import steady_state_reuse_distances
from ..spmv.sector_policy import SectorPolicy


def set_index(lines: np.ndarray, num_sets: int) -> np.ndarray:
    """Hashed set index: fold the upper address bits into the set bits.

    Plain ``line % num_sets`` makes concurrent unit-stride streams whose
    start offsets happen to coincide modulo ``num_sets`` collide in the
    same sets forever — a power-of-two-stride pathology that scaling the
    set count down by 16 makes far more likely than on the real machine.
    XOR-folding the tag bits into the index (a standard hardware technique)
    decorrelates stream phases while keeping the mapping deterministic.
    """
    lines = np.asarray(lines, dtype=np.int64)
    return (lines ^ (lines // num_sets) ^ (lines // (num_sets * num_sets))) % num_sets


@dataclass(frozen=True)
class SetAssocRD:
    """Precomputed in-set reuse distances of a trace against one cache level.

    The split pass treats the two sectors as separate caches (partitioned
    mode); the shared pass lets all data compete for every way (sector
    cache disabled).  Both are computed on demand, floored at the smallest
    way count their masks can ask about, and cached.

    When a ``first_trace`` (with matching ``first_sectors``/
    ``first_cache_ids``) is given, ``trace`` is interpreted as the steady
    period of the reference stream ``[first_trace, trace, trace, ...]`` and
    in-set distances come from the single-period steady-state engine
    (wrap-around reuse against the warm-up period) instead of a doubled
    trace.
    """

    trace: MemoryTrace
    geometry: CacheGeometry
    sectors: np.ndarray
    cache_ids: np.ndarray
    first_trace: MemoryTrace | None = None
    first_sectors: np.ndarray | None = None
    first_cache_ids: np.ndarray | None = None
    _cache: dict = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        n = len(self.trace)
        object.__setattr__(self, "sectors", np.ascontiguousarray(self.sectors, dtype=np.int8))
        object.__setattr__(
            self, "cache_ids", np.ascontiguousarray(self.cache_ids, dtype=np.int64)
        )
        if self.sectors.shape != (n,) or self.cache_ids.shape != (n,):
            raise ValueError("sectors and cache_ids must match the trace length")
        if self.first_trace is not None:
            m = len(self.first_trace)
            object.__setattr__(
                self,
                "first_sectors",
                np.ascontiguousarray(self.first_sectors, dtype=np.int8),
            )
            object.__setattr__(
                self,
                "first_cache_ids",
                np.ascontiguousarray(self.first_cache_ids, dtype=np.int64),
            )
            if self.first_sectors.shape != (m,) or self.first_cache_ids.shape != (m,):
                raise ValueError(
                    "first_sectors and first_cache_ids must match first_trace"
                )
        object.__setattr__(self, "_cache", {})

    @property
    def set_index(self) -> np.ndarray:
        """Hashed set index of each reference."""
        return set_index(self.trace.lines, self.geometry.num_sets)

    def _groups(
        self,
        lines: np.ndarray,
        cache_ids: np.ndarray,
        sectors: np.ndarray,
        partitioned: bool,
    ) -> np.ndarray:
        groups = cache_ids * self.geometry.num_sets + set_index(
            lines, self.geometry.num_sets
        )
        if partitioned:
            groups = groups * 2 + sectors
        return groups

    def _rd(self, partitioned: bool) -> np.ndarray:
        key = "split" if partitioned else "shared"
        if key not in self._cache:
            with obs_span("sim.setassoc_pass", grouping=key,
                          references=len(self.trace)):
                groups = self._groups(
                    self.trace.lines, self.cache_ids, self.sectors, partitioned
                )
                # the fewest ways any legal split gives a reference's stack
                floor = 1 if partitioned else self.geometry.ways
                if self.first_trace is None:
                    self._cache[key] = reuse_distances(
                        self.trace.lines, groups, window_floor=floor
                    )
                else:
                    self._cache[key] = steady_state_reuse_distances(
                        self.trace.lines,
                        groups,
                        first_lines=self.first_trace.lines,
                        first_groups=self._groups(
                            self.first_trace.lines,
                            self.first_cache_ids,
                            self.first_sectors,
                            partitioned,
                        ),
                        window_floor=floor,
                    )
        return self._cache[key]

    def hit_mask(self, sector1_ways: int) -> np.ndarray:
        """Per-reference hit mask for a given way split.

        ``sector1_ways == 0`` disables partitioning (all ways shared);
        otherwise sector 1 owns ``sector1_ways`` ways and sector 0 the rest.
        A reference hits iff fewer distinct lines mapped to its set *and
        sector* since its previous access than its sector owns ways.
        """
        ways = self.geometry.ways
        if not 0 <= sector1_ways < ways:
            raise ValueError(f"sector1_ways must be in [0, {ways}), got {sector1_ways}")
        if sector1_ways == 0:
            return self._rd(partitioned=False) < ways
        rd = self._rd(partitioned=True)
        capacity = np.where(self.sectors == 1, sector1_ways, ways - sector1_ways)
        return rd < capacity

    def miss_mask(self, sector1_ways: int) -> np.ndarray:
        return ~self.hit_mask(sector1_ways)


def simulate(
    trace: MemoryTrace,
    geometry: CacheGeometry,
    policy: SectorPolicy,
    level: str = "l2",
    cache_ids: np.ndarray | None = None,
    first_trace: MemoryTrace | None = None,
    first_cache_ids: np.ndarray | None = None,
) -> SetAssocRD:
    """Prepare a trace for set-associative simulation against a cache level.

    ``cache_ids`` distinguishes physically distinct caches fed by the same
    trace array (private L1s keyed by thread, L2 segments keyed by CMG);
    defaults to a single cache.  ``first_trace`` (with its own cache ids)
    designates a warm-up period preceding infinitely many repetitions of
    ``trace``; the returned distances are then steady state.
    """
    if cache_ids is None:
        cache_ids = np.zeros(len(trace), dtype=np.int64)
    if level not in ("l1", "l2"):
        raise ValueError(f"level must be 'l1' or 'l2', got {level!r}")
    first_sectors = None
    if first_trace is not None:
        if first_cache_ids is None:
            first_cache_ids = np.zeros(len(first_trace), dtype=np.int64)
        first_sectors = first_trace.sectors(policy)
    return SetAssocRD(
        trace,
        geometry,
        trace.sectors(policy),
        cache_ids,
        first_trace,
        first_sectors,
        first_cache_ids,
    )
