"""Method (B): cache-miss approximation from the column indices alone.

Section 3.2.2 of the paper: instead of processing the full kernel trace,
process only the x-vector access trace (given directly by ``colidx``) — a
3-5x smaller reference set — and recover the effect of the other arrays
analytically:

* x-only reuse distances are inflated by ``s1 = (16 M/K + 8)/8`` when x
  shares its partition with ``rowptr`` and ``y`` (partitioned case), or by
  ``s2 = (16 M/K + 20)/8`` when additionally ``a`` and ``colidx`` compete
  for the same cache (no partitioning);
* misses of the streamed arrays come from the closed-form line counts of
  Section 3.1, gated by the class considerations (an array streams misses
  iff it cannot be retained in the space available to it).

One stack pass covers every sector configuration.  The documented accuracy
loss for matrices with few nonzeros per row and high row-length variation
(the scaling factor is an average) is evaluated in Table 2/3 benches.

A model built with ``query_points`` (the ``(scale, capacity)`` pairs it
will be asked, as ladder tier 2 declares them) runs its x stack pass with
the window floor of those points: references that hit at every point are
not counted.  It answers exactly every query at or above that floor and
raises on any other.  Without query points the pass is exact.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cached_property

import numpy as np

from ..machine.a64fx import A64FX
from ..obs.tracer import count as obs_count
from ..obs.tracer import span as obs_span
from ..parallel.interleave import interleave
from ..reuse.cdq import reuse_distances
from ..reuse.histogram import ReuseProfile, scale_distances, window_floor
from ..reuse.periodic import steady_state_reuse_distances
from ..spmv.csr import CSRMatrix
from ..spmv.schedule import static_schedule
from ..spmv.sector_policy import SectorPolicy
from .analytic import method_b_per_array, method_b_scale_factors, stream_misses
from .method_a import MissPrediction
from .trace import x_only_trace


class MethodB:
    """Column-index-only miss model (single stack pass, analytic envelope)."""

    def __init__(
        self,
        matrix: CSRMatrix,
        machine: A64FX,
        num_threads: int = 1,
        iterations: int = 2,
        query_points: Iterable[tuple[float, int]] | None = None,
    ) -> None:
        if matrix.nnz == 0:
            raise ValueError("method B requires a non-empty matrix")
        if iterations <= 0:
            raise ValueError("iterations must be positive")
        self.matrix = matrix
        self.machine = machine
        self.num_threads = num_threads
        self.iterations = iterations
        schedule = static_schedule(matrix, num_threads)
        with obs_span("method_b.trace_build", matrix=matrix.name,
                      threads=num_threads):
            per_thread = x_only_trace(matrix, None, schedule, line_size=machine.line_size)
            with obs_span("interleave"):
                # one period of x references: every stack pass runs over it
                self.trace = interleave(per_thread)
        self._cmgs = (self.trace.threads // machine.cores_per_cmg).astype(np.int64)
        self.s1, self.s2 = method_b_scale_factors(matrix)
        self._streams = stream_misses(matrix, machine.line_size)
        #: window floor of the L2 x pass (``None``: exact distances)
        self.window_floor = (
            None if query_points is None
            else min((window_floor(scale, capacity)
                      for scale, capacity in query_points), default=None)
        )

    @property
    def periodic(self) -> bool:
        """Whether the passes price a warmed-up period (``iterations >= 2``)."""
        return self.iterations >= 2

    @property
    def num_cmgs_used(self) -> int:
        return int(self._cmgs.max()) + 1 if len(self.trace) else 1

    def _stack_pass(self, groups: np.ndarray,
                    floor: int | None = None) -> np.ndarray:
        """Steady-state distances of the period, or a cold pass for one
        iteration (see :meth:`repro.core.method_a.MethodA._stack_pass`)."""
        references = len(self.trace)
        # a floored pass re-annotates `counted` with what it counted
        with obs_span("method_b.stack_pass", periodic=self.periodic,
                      references=references, counted=references):
            if self.periodic:
                return steady_state_reuse_distances(
                    self.trace.lines, groups, window_floor=floor)
            return reuse_distances(self.trace.lines, groups, window_floor=floor)

    @cached_property
    def _x_rd(self) -> np.ndarray:
        """The single stack pass over x references, per CMG segment."""
        return self._stack_pass(self._cmgs, self.window_floor)

    @cached_property
    def _x_rd_l1(self) -> np.ndarray:
        """The per-thread (private L1) stack pass over x references."""
        return self._stack_pass(self.trace.threads.astype(np.int64))

    @cached_property
    def _profile_cache(self) -> dict[tuple[str, float], ReuseProfile]:
        return {}

    def _x_profile(self, level: str, scale: float) -> ReuseProfile:
        """Materialized profile of the period's scaled x distances.

        The sort is paid once per (cache level, scale factor); every later
        capacity query is an O(log n) ``searchsorted``.  Only the two paper
        factors s1/s2 (plus 1.0) occur, so the cache stays tiny.
        """
        key = (level, float(scale))
        profile = self._profile_cache.get(key)
        if profile is None:
            with obs_span("method_b.profile_build", level=level):
                rd = self._x_rd if level == "l2" else self._x_rd_l1
                profile = ReuseProfile.from_distances(scale_distances(rd, scale))
            self._profile_cache[key] = profile
        return profile

    def x_misses(self, scale: float, capacity_lines: int) -> int:
        """Misses of x references with inflated distances vs. a capacity.

        ``scale=1.0`` prices the Section-3.2.2 case (3) where x owns a
        partition alone; s1/s2 price the shared-partition cases.  A query
        the model's window floor cannot answer exactly raises.
        """
        floor = self.window_floor
        if floor is not None and window_floor(scale, capacity_lines) < floor:
            raise ValueError(
                f"x_misses({scale!r}, {capacity_lines}) is below the window "
                f"floor {floor} of this model's query points"
            )
        obs_count("method_b.profile_queries")
        return self._x_profile("l2", scale).misses(capacity_lines)

    # ------------------------------------------------------------------
    def predict(self, policy: SectorPolicy) -> MissPrediction:
        """Predicted L2 misses of one steady-state iteration."""
        policy.validate(self.machine)
        per_array = method_b_per_array(
            self.matrix,
            self.machine,
            self.num_cmgs_used,
            self._streams,
            self.s1,
            self.s2,
            self.x_misses,
            policy,
        )
        return MissPrediction(
            l2_misses=sum(per_array.values()),
            per_array=per_array,
            method="B",
            policy=policy,
        )

    def predict_l1(self, policy: SectorPolicy) -> MissPrediction:
        """Predicted L1 misses (summed over private caches).

        The x trace is re-grouped per thread; streamed arrays always exceed
        a 64 KiB L1 for the matrix sizes of interest, so they contribute
        their full line counts.  The sum is reported in the prediction's
        level-agnostic :attr:`MissPrediction.misses` (alias of the
        historical ``l2_misses`` field).
        """
        policy.validate(self.machine)
        if policy.l1_enabled:
            n0, _ = self.machine.l1.partition_lines(policy.l1_sector1_ways)
            scale, capacity = self.s1, n0
        else:
            scale, capacity = self.s2, self.machine.l1.capacity_lines
        obs_count("method_b.profile_queries")
        x_miss = self._x_profile("l1", scale).misses(capacity)
        streams = self._streams
        per_array = {
            "values": streams.values,
            "colidx": streams.colidx,
            "rowptr": streams.rowptr,
            "y": streams.y,
            "x": x_miss,
        }
        return MissPrediction(
            l2_misses=sum(per_array.values()),
            per_array=per_array,
            method="B",
            policy=policy,
        )
