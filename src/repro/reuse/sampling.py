"""Sampled reuse-distance estimation.

The paper's Section 2.2 notes that full trace instrumentation is costly
and cites lightweight sampling approaches (ReuseTracker) built on
hardware-event sampling and statistics.  This module implements the
trace-level analogue, SHARDS-style *spatial* sampling (the serving-path
estimator, ladder tier 1): a cache *line* is sampled iff a multiplicative
hash of its identifier falls under ``rate`` of the hash space, the
single-period steady-state stack pass runs over the surviving subtrace,
and both distances and miss counts are rescaled.  Filtering whole lines
preserves every use pair among survivors, so subtrace reuse distances are
unbiased ``rate``-compressions of the true distances (each distinct
intervening line survives with probability ``rate``), and the pass costs
roughly ``rate`` of the full one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .histogram import ReuseProfile
from .periodic import steady_state_reuse_distances

#: Knuth's multiplicative hash constant (2^32 / phi), the SHARDS T_f hash.
_SHARDS_MULTIPLIER = np.int64(2654435761)
_HASH_BITS = 32


def spatial_sample_mask(lines: np.ndarray, rate: float) -> np.ndarray:
    """Deterministic SHARDS inclusion mask over line identifiers.

    A line survives iff ``hash(line) < rate * 2^32`` with the fixed
    multiplicative hash — no RNG, so the same trace always yields the
    same subtrace (estimates are reproducible and cache-stable).
    """
    if not 0.0 < rate <= 1.0:
        raise ValueError("rate must be in (0, 1]")
    lines = np.asarray(lines, dtype=np.int64)
    hashed = (lines * _SHARDS_MULTIPLIER) & np.int64(2**_HASH_BITS - 1)
    return hashed < np.int64(round(rate * float(2**_HASH_BITS)))


@dataclass(frozen=True)
class SpatialSampledProfile:
    """A reuse profile over a hash-sampled subset of cache lines.

    ``profile`` holds the *subtrace* reuse distances, which are compressed
    by roughly the sampling rate (each distinct intervening line survives
    the hash filter with probability ``rate``); capacity queries rescale
    the capacity instead of the distances.  Miss counts are scaled back by
    the nominal ``1/rate``: every line — and with it all of its accesses —
    is included with probability exactly ``rate`` under the uniform hash,
    so the subtrace miss count is an unbiased ``rate``-fraction of the
    truth regardless of popularity skew.  (Scaling by the *measured*
    access-inclusion fraction instead is badly biased on skewed traces:
    hot lines dominate the denominator but contribute no misses.)
    ``count_rate`` records the measured access-inclusion fraction as a
    skew diagnostic only.
    """

    profile: ReuseProfile
    rate: float
    count_rate: float
    num_accesses: int

    def effective_capacity(self, capacity_lines: int, scale: float = 1.0) -> int:
        """Subtrace capacity equivalent to ``capacity_lines`` at a distance scale.

        A true (scaled) distance misses a capacity ``C`` iff
        ``scale * rd >= C``; with subtrace distances ``rd_s ~= rate * rd``
        that is ``rd_s >= C * rate / scale``, i.e. an ordinary miss query
        at the rescaled capacity.
        """
        if scale <= 0:
            raise ValueError("scale must be positive")
        if capacity_lines < 0:
            raise ValueError("capacity must be non-negative")
        return int(np.ceil(capacity_lines * self.rate / scale))

    def sampled_misses(self, capacity_lines: int, scale: float = 1.0) -> int:
        """Raw subtrace miss count at the rescaled capacity (unscaled)."""
        return self.profile.misses(self.effective_capacity(capacity_lines, scale))

    def misses(self, capacity_lines: int, scale: float = 1.0) -> float:
        """Estimated full-trace misses at a capacity (expectation)."""
        return self.sampled_misses(capacity_lines, scale) / self.rate

    def standard_error(self, capacity_lines: int, scale: float = 1.0) -> float:
        """Binomial standard error of the estimated miss count.

        ``Var[k / rate] = k (1 - rate) / rate^2`` for a per-line inclusion
        probability of ``rate`` (conservatively treating sampled misses as
        independent; whole-line inclusion correlates a line's misses, so
        heavy per-line miss multiplicity can exceed this — the ladder adds
        a calibrated slack on top).
        """
        k = self.sampled_misses(capacity_lines, scale)
        return float(np.sqrt(max(k, 0) * (1.0 - self.rate)) / self.rate)


def spatial_sample_profile(
    lines: np.ndarray,
    groups: np.ndarray | None = None,
    rate: float = 0.1,
) -> SpatialSampledProfile:
    """SHARDS-sampled steady-state reuse profile of a periodic trace.

    Runs the single-period steady-state pass the exact engines use over
    the hash-filtered subtrace.  Cost is roughly ``rate`` of the exact pass.
    """
    lines = np.asarray(lines, dtype=np.int64)
    n = lines.shape[0]
    keep = spatial_sample_mask(lines, rate)
    sub = lines[keep]
    sub_groups = None
    if groups is not None:
        groups = np.asarray(groups, dtype=np.int64)
        if groups.shape != lines.shape:
            raise ValueError("groups must have the same length as the trace")
        sub_groups = groups[keep]
    if sub.shape[0] == 0:
        return SpatialSampledProfile(
            profile=ReuseProfile(np.empty(0, dtype=np.int64)),
            rate=rate,
            count_rate=0.0,
            num_accesses=n,
        )
    rd = steady_state_reuse_distances(sub, sub_groups)
    return SpatialSampledProfile(
        profile=ReuseProfile(np.sort(rd)),
        rate=rate,
        count_rate=sub.shape[0] / n,
        num_accesses=n,
    )
