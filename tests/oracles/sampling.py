"""Temporal (per-reference) reuse-distance sampling.

A reference is sampled with probability ``rate``, its exact reuse distance
is computed by a direct window scan, and counts are scaled by ``1/rate``.
Cheap per sample, but the window scans make its worst case as expensive
as a full pass; it is the reference estimator the SHARDS-style
:func:`repro.reuse.spatial_sample_profile` is judged against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.reuse import COLD, ReuseProfile, compute_prev


@dataclass(frozen=True)
class SampledProfile:
    """A reuse profile estimated from sampled references.

    ``profile`` holds the sampled distances; miss-count queries are scaled
    back by the sampling rate.
    """

    profile: ReuseProfile
    rate: float
    num_accesses: int

    def misses(self, capacity_lines: int) -> float:
        """Estimated total misses at a capacity (expectation)."""
        return self.profile.misses(capacity_lines) / self.rate

    def miss_ratio(self, capacity_lines: int) -> float:
        if self.num_accesses == 0:
            return 0.0
        return min(1.0, self.misses(capacity_lines) / self.num_accesses)

    def standard_error(self, capacity_lines: int) -> float:
        """Binomial standard error of the estimated miss count."""
        k = self.profile.misses(capacity_lines)
        # Var[k/rate] = k (1 - rate) / rate^2 for Poisson-sampled counts
        return float(np.sqrt(max(k, 0) * (1.0 - self.rate)) / self.rate)


def sample_reuse_distances(
    trace: np.ndarray,
    rate: float,
    seed: int = 0,
    groups: np.ndarray | None = None,
) -> SampledProfile:
    """Estimate the reuse profile of a trace by per-reference sampling.

    Exact per-sample distances: for sampled reference ``i`` with previous
    occurrence ``p``, the distance is the number of ``j`` in ``(p, i)``
    with ``prev[j] <= p`` (first occurrences in the window).  Windows are
    scanned directly; the expected total work is ``rate * sum(window)``,
    i.e. proportional to the sampled fraction of the trace footprint.
    """
    if not 0.0 < rate <= 1.0:
        raise ValueError("rate must be in (0, 1]")
    trace = np.asarray(trace, dtype=np.int64)
    n = trace.shape[0]
    if n == 0:
        return SampledProfile(ReuseProfile(np.empty(0, dtype=np.int64)), rate, 0)
    if groups is None:
        order = np.arange(n)
        keys = trace
    else:
        groups = np.asarray(groups, dtype=np.int64)
        if groups.shape != (n,):
            raise ValueError("groups must have the same length as trace")
        order = np.argsort(groups, kind="stable")
        span = int(trace.max()) + 1
        keys = groups[order] * span + trace[order]
    prev = compute_prev(keys)
    rng = np.random.default_rng(seed)
    sampled = np.flatnonzero(rng.random(n) < rate)
    distances = np.empty(sampled.shape[0], dtype=np.int64)
    for out_idx, i in enumerate(sampled):
        p = prev[i]
        if p < 0:
            distances[out_idx] = COLD
            continue
        window_prev = prev[p + 1 : i]
        distances[out_idx] = int(np.count_nonzero(window_prev <= p))
    return SampledProfile(
        profile=ReuseProfile(np.sort(distances)), rate=rate, num_accesses=n
    )
