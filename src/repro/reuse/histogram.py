"""Reuse-distance histograms and capacity sweeps.

A single reuse-distance computation answers miss-count queries for *every*
cache capacity (the key advantage over cache simulation that the paper's
Section 2.2 highlights).  :class:`ReuseProfile` packages sorted distances so
repeated capacity queries — e.g. one per sector-cache way split — are
O(log n) ``searchsorted`` lookups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cdq import COLD
from .fenwick import stable_order


@dataclass(frozen=True)
class ReuseProfile:
    """Sorted reuse distances of (a subset of) a trace.

    ``sorted_rd`` includes cold accesses as :data:`COLD` entries, so
    ``misses(c)`` counts compulsory plus capacity misses, and
    ``capacity_misses(c)`` counts capacity misses only.
    """

    sorted_rd: np.ndarray

    @classmethod
    def from_distances(
        cls, rd: np.ndarray, mask: np.ndarray | None = None
    ) -> "ReuseProfile":
        rd = np.asarray(rd, dtype=np.int64)
        if mask is not None:
            rd = rd[np.asarray(mask, dtype=bool)]
        return cls(np.sort(rd))

    @property
    def num_accesses(self) -> int:
        return int(self.sorted_rd.shape[0])

    @property
    def num_cold(self) -> int:
        """Number of compulsory (first-reference) accesses."""
        return self.num_accesses - int(
            np.searchsorted(self.sorted_rd, COLD, side="left")
        )

    def misses(self, capacity_lines: int) -> int:
        """Total misses (compulsory + capacity) for an LRU cache of ``capacity_lines``."""
        if capacity_lines < 0:
            raise ValueError("capacity must be non-negative")
        hits = int(np.searchsorted(self.sorted_rd, capacity_lines, side="left"))
        return self.num_accesses - hits

    def capacity_misses(self, capacity_lines: int) -> int:
        """Capacity misses only (cold accesses excluded)."""
        return self.misses(capacity_lines) - self.num_cold

    def hit_ratio(self, capacity_lines: int) -> float:
        """Hit ratio at the given capacity (1.0 for an empty profile)."""
        if self.num_accesses == 0:
            return 1.0
        return 1.0 - self.misses(capacity_lines) / self.num_accesses

    def miss_curve(self, capacities: np.ndarray) -> np.ndarray:
        """Vectorized ``misses`` over an array of capacities."""
        capacities = np.asarray(capacities, dtype=np.int64)
        if np.any(capacities < 0):
            raise ValueError("capacities must be non-negative")
        hits = np.searchsorted(self.sorted_rd, capacities, side="left")
        return self.num_accesses - hits

    def histogram(self, bin_edges: np.ndarray) -> np.ndarray:
        """Counts of finite reuse distances within ``bin_edges`` bins."""
        finite = self.sorted_rd[self.sorted_rd < COLD]
        counts, _ = np.histogram(finite, bins=np.asarray(bin_edges))
        return counts


def partition_profiles(
    rd: np.ndarray,
    labels: np.ndarray,
    num_labels: int,
    mask: np.ndarray | None = None,
) -> tuple[ReuseProfile, ...]:
    """One :class:`ReuseProfile` per label value in ``[0, num_labels)``.

    Buckets the reuse distances by an integer label (array id, sector,
    thread — any per-access attribute) in a single stable sort, optionally
    restricted to ``mask`` first.  This is how the model materializes its
    per-(grouping, array) profiles after a stack pass: every later policy
    query is then an O(log n) ``searchsorted`` against these buckets.
    """
    rd = np.asarray(rd, dtype=np.int64)
    labels = np.asarray(labels)
    if labels.shape != rd.shape:
        raise ValueError("labels must align with the distances")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        rd = rd[mask]
        labels = labels[mask]
    order = stable_order(labels)
    labels_sorted = labels[order]
    rd_sorted = rd[order]
    bounds = np.searchsorted(labels_sorted, np.arange(num_labels + 1))
    return tuple(
        ReuseProfile.from_distances(rd_sorted[bounds[i] : bounds[i + 1]])
        for i in range(num_labels)
    )


def scale_distances(rd: np.ndarray, factor: float) -> np.ndarray:
    """Scale finite reuse distances by ``factor``, preserving COLD markers.

    Used by the paper's method (B): x-only reuse distances are inflated by
    the analytic factors s1/s2 to account for interleaved references to the
    other data structures (Section 3.2.2).  Results are rounded to the
    nearest integer distance.
    """
    if factor < 0:
        raise ValueError("factor must be non-negative")
    rd = np.asarray(rd, dtype=np.int64)
    out = np.full(rd.shape, COLD, dtype=np.int64)
    finite = rd < COLD
    out[finite] = np.rint(rd[finite] * float(factor)).astype(np.int64)
    return out


def window_floor(factor: float, capacity_lines: int) -> int:
    """Smallest distance whose scaled value reaches ``capacity_lines``.

    Uses the rounding of :func:`scale_distances`, which is monotone in the
    distance: every distance below the result hits an LRU cache of
    ``capacity_lines`` once scaled by ``factor``, every distance at or
    above it misses.  A stack pass with this window floor (see
    :mod:`repro.reuse.cdq`) therefore answers that one query exactly.
    """
    if factor < 0:
        raise ValueError("factor must be non-negative")
    if capacity_lines < 0:
        raise ValueError("capacity must be non-negative")
    if capacity_lines == 0:
        return 0
    factor = float(factor)
    if factor == 0 or (capacity_lines - 0.5) / factor >= COLD:
        return int(COLD)  # no finite distance scales up to the capacity
    distance = max(0, int((capacity_lines - 0.5) / factor) - 1)
    while distance > 0 and np.rint(np.int64(distance - 1) * factor) >= capacity_lines:
        distance -= 1
    while np.rint(np.int64(distance) * factor) < capacity_lines:
        distance += 1
    return distance
