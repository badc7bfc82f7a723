"""Cumulative latency histograms (Prometheus ``le`` bucket convention).

Every observability consumer — the advisor daemon, benchmarks, ad-hoc
scripts — shares this one histogram implementation.
"""

from __future__ import annotations

#: Histogram bucket upper bounds in seconds (+Inf is implicit).
LATENCY_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                   0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0)

#: predicted-improvement histogram boundaries (fraction of baseline
#: misses removed; 1.0 would mean every L2 miss optimized away)
IMPROVEMENT_BUCKETS = (0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0)

#: accumulated-drift histogram boundaries (edited-edge fraction of the
#: base pattern across a delta chain; 1.0 would mean as many edits as
#: base nonzeros)
DRIFT_BUCKETS = (0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0)


class LatencyHistogram:
    """Cumulative histogram of observed seconds."""

    def __init__(self, buckets: tuple[float, ...] = LATENCY_BUCKETS) -> None:
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # last slot: +Inf
        self.total = 0
        self.sum_seconds = 0.0

    def observe(self, seconds: float) -> None:
        self.total += 1
        self.sum_seconds += seconds
        for i, bound in enumerate(self.buckets):
            if seconds <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile via linear interpolation in-bucket.

        Observations landing past the last finite bound clamp to that
        bound (the histogram cannot know how far past it they went), so
        tail quantiles are conservative-low there — exact exceedance
        accounting must ride on per-observation counters, not on this.
        Returns 0.0 for an empty histogram.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        if self.total == 0:
            return 0.0
        rank = q * self.total
        cumulative, lower = 0, 0.0
        for bound, count in zip(self.buckets, self.counts):
            previous = cumulative
            cumulative += count
            if cumulative >= rank and count:
                return lower + (rank - previous) / count * (bound - lower)
            lower = bound
        return self.buckets[-1]

    def snapshot(self) -> dict:
        cumulative = 0
        out: dict = {"count": self.total, "sum_seconds": self.sum_seconds,
                     "buckets": {}}
        for bound, count in zip(self.buckets, self.counts):
            cumulative += count
            out["buckets"][str(bound)] = cumulative
        out["buckets"]["+Inf"] = self.total
        out["quantiles"] = {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }
        return out
