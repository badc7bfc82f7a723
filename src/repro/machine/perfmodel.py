"""ECM-style SpMV performance model over simulated cache events.

The paper's performance observations (Section 4.4) are the calibration
points of this model:

* peak-locality matrices reach 110-120 Gflop/s — a per-core SpMV execution
  ceiling (gather-bound SVE), not peak FLOPS;
* streaming-bound matrices track the sustained ~800 GB/s HBM2 bandwidth
  (2 flops per 12 matrix bytes = ~130 Gflop/s upper envelope, less with
  x-vector traffic);
* many matrices are limited by neither — the *latency of handling demand
  misses* dominates, which is why reducing demand misses with the sector
  cache speeds them up even as bandwidth utilisation rises.

Execution time of one SpMV iteration is modelled as::

    T = max(T_compute, T_l1l2, T_memory) + T_demand_latency

with the demand-latency term additive (it serialises against the pipelines
the other terms model).  The components come directly from the simulator's
PMU-style events, so a sector configuration that removes demand misses
shortens ``T_demand_latency`` exactly as Fig. 5 correlates.

All traffic terms are intensive (bytes *per nonzero*), so events measured
on the scaled machine with scaled matrices yield full-machine Gflop/s
projections without rescaling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cachesim.events import CacheEvents
from ..spmv.csr import CSRMatrix
from .a64fx import A64FX


@dataclass(frozen=True)
class PerformanceEstimate:
    """Modelled runtime of one SpMV iteration and derived metrics."""

    seconds: float
    gflops: float
    components: dict[str, float] = field(default_factory=dict)
    bandwidth_gbs: float = 0.0

    @property
    def bottleneck(self) -> str:
        """Name of the dominant time component."""
        return max(self.components, key=self.components.get)


@dataclass(frozen=True)
class PerformanceModel:
    """Calibrated throughput/latency model of SpMV on the A64FX.

    ``core_spmv_flops`` is the per-core execution ceiling of the CSR kernel
    (indexed loads bound SVE throughput well below peak FMA rate);
    ``mlp`` the average number of demand misses the out-of-order engine and
    prefetch machinery overlap.
    """

    machine: A64FX
    core_spmv_flops: float = 3.5e9
    mlp: float = 6.0

    def estimate(
        self,
        matrix: CSRMatrix,
        events: CacheEvents,
        num_threads: int,
    ) -> PerformanceEstimate:
        """Runtime and Gflop/s of one SpMV iteration from simulated events."""
        return self.estimate_from_counts(matrix.nnz, events, num_threads)

    def estimate_from_counts(
        self,
        nnz: int,
        events: CacheEvents,
        num_threads: int,
    ) -> PerformanceEstimate:
        """Like :meth:`estimate`, from the nonzero count alone."""
        if num_threads <= 0:
            raise ValueError("num_threads must be positive")
        machine = self.machine
        line = machine.line_size
        flops = 2.0 * nnz
        cmgs_used = machine.cmgs_used(num_threads)

        t_compute = flops / (num_threads * self.core_spmv_flops)
        l1l2_bytes = float(events.l1_refill) * line
        t_l1l2 = l1l2_bytes / (num_threads * machine.l2_bandwidth_per_core)
        mem_bytes = float(events.traffic_bytes(line))
        t_memory = mem_bytes / (cmgs_used * machine.mem_bandwidth_per_cmg)
        t_latency = (
            float(events.l2_demand_misses)
            * machine.demand_miss_latency
            / (num_threads * self.mlp)
        )
        seconds = max(t_compute, t_l1l2, t_memory) + t_latency
        return PerformanceEstimate(
            seconds=seconds,
            gflops=flops / seconds / 1e9,
            components={
                "compute": t_compute,
                "l1l2": t_l1l2,
                "memory": t_memory,
                "demand_latency": t_latency,
            },
            bandwidth_gbs=mem_bytes / seconds / 1e9,
        )

    def speedup(
        self,
        matrix: CSRMatrix,
        baseline: CacheEvents,
        configured: CacheEvents,
        num_threads: int,
    ) -> float:
        """Modelled speedup of a sector configuration over the baseline."""
        t0 = self.estimate(matrix, baseline, num_threads).seconds
        t1 = self.estimate(matrix, configured, num_threads).seconds
        return t0 / t1
