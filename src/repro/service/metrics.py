"""The daemon's metric helpers over its :class:`~repro.obs.MetricStore`.

Every value ``/metrics`` reports is declared once, as a row of
:data:`~repro.obs.prometheus.SERVICE_FAMILIES`, and kept in the store
built from that table.  This module holds what is more than one store
write: the queue and worker gauges with their high-water marks, and the
helpers that read a result (a ladder answer, a reordering search, a
delta evaluation, a GC sweep, per-phase self seconds) into its families.
"""

from __future__ import annotations

from ..obs.prometheus import MetricStore

__all__ = ["ServiceMetrics"]


class ServiceMetrics:
    """Gauges and result accounting, written through ``store``."""

    def __init__(self, store: MetricStore) -> None:
        self.store = store

    # -- gauges --------------------------------------------------------
    def enqueue(self) -> None:
        self.store.peak("queue.peak", value=self.store.count("queue.depth"))

    def dequeue(self) -> None:
        self.store.count("queue.depth", by=-1)

    def worker_started(self) -> None:
        self.store.peak("workers.peak_busy",
                        value=self.store.count("workers.busy"))

    def worker_finished(self) -> None:
        self.store.count("workers.busy", by=-1)

    # -- result accounting ---------------------------------------------
    def observe_ladder(self, endpoint: str, tier: int, escalations: int) -> None:
        """Account one fidelity-ladder answer (delivered tier + climbs)."""
        self.store.count("ladder.answers", endpoint, tier)
        self.store.count("ladder.escalations", int(escalations))

    def observe_optimize(self, result: dict) -> None:
        """Account one fresh reordering search (its wire result dict).

        Per-strategy terminal statuses, the confirmed predicted
        improvement, and the search's ladder answers — the latter folded
        into ``ladder.answers.optimize`` so the "screens at tier 0/1,
        exact only at confirmation" invariant is assertable straight off
        ``/metrics`` (at most two tier-2 entries per search).
        """
        for entry in result.get("strategies", ()):
            self.store.count("optimize.strategies", entry["label"],
                             entry["status"])
        confirmation = result.get("confirmation", {})
        if "improvement" in confirmation:
            self.store.observe("optimize.improvement",
                               value=float(confirmation["improvement"]))
        for tier, count in result.get("fidelity", {}).get(
                "ladder_answers", {}).items():
            self.store.count("ladder.answers", "optimize", tier, by=int(count))

    def observe_delta(self, endpoint: str, meta: dict) -> None:
        """Account one fresh delta evaluation (its worker metadata).

        ``meta["path"]`` says how the worker priced it: any value but
        ``"fallback"`` means the full stack pass was avoided (counted in
        ``delta.applied`` under the path), ``"fallback"`` counts under
        its reason.  The accumulated drift always feeds the histogram.
        """
        path = meta.get("path", "incremental")
        if path == "fallback":
            self.store.count("delta.fallback", endpoint,
                             meta.get("reason", "unknown"))
        else:
            self.store.count("delta.applied", endpoint, path)
        if "drift" in meta:
            self.store.observe("delta.drift", value=float(meta["drift"]))

    def observe_gc(self, stats: dict) -> None:
        """Fold one :func:`~repro.service.cache.gc_sweep` result in."""
        self.store.count("gc.sweeps")
        self.store.count("gc.deleted", by=int(stats.get("deleted", 0)))
        self.store.count("gc.deleted_bytes",
                         by=int(stats.get("deleted_bytes", 0)))
        self.store.set("gc.quarantined",
                       value=int(stats.get("quarantined", 0)))

    def observe_phases(self, endpoint: str, phases: dict) -> None:
        """Fold one evaluation's per-phase self seconds into the totals."""
        for name, seconds in phases.items():
            self.store.count("evaluation_phase_seconds", endpoint, name,
                             by=float(seconds))
