"""Two-level simulated memory hierarchy for SpMV on the (scaled) A64FX.

This is the reproduction's measurement testbed: it plays the role of the
real A64FX + PMU in the paper's evaluation.  Pipeline per configuration:

1. build per-thread SpMV traces from the sparsity pattern, repeated for
   ``iterations`` SpMV sweeps (steady-state events come from the last one);
2. interleave them (MCS-fair round-robin by default);
3. inject L1 stream prefetches; simulate all 48 private L1Ds in one
   vectorized reuse-distance pass (composite group keys);
4. the L2 reference stream is the L1 *misses* (demand refs that hit L1
   never reach L2) plus injected L2 stream prefetches; simulate the four
   CMG-shared L2 segments in one pass, threads mapped to CMGs by compact
   binding;
5. aggregate PMU-style events, restricted to the final iteration.

In-set reuse distances are computed once per {partitioned, shared}
grouping and reused for *every* way split, so sweeping the paper's sector
configurations (Figs. 2-3) costs one thresholding per configuration, not
one simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.trace import MemoryTrace, concat_traces, repeat_trace, spmv_trace
from ..machine.a64fx import A64FX
from ..obs.tracer import count as obs_count
from ..obs.tracer import span as obs_span
from ..parallel.interleave import interleave
from ..spmv.csr import CSRMatrix
from ..spmv.schedule import RowSchedule, static_schedule
from ..spmv.sector_policy import SectorPolicy, listing1_policy, no_sector_cache
from .events import CacheEvents, per_array_counts
from .prefetch import inject_prefetches
from .setassoc import SetAssocRD, simulate


@dataclass(frozen=True)
class SimConfig:
    """Simulator knobs shared across sector-cache configurations."""

    num_threads: int = 1
    iterations: int = 2
    l1_prefetch_distance: int = 2
    l2_prefetch_distance: int = 4
    #: arrays assigned to sector 1 (Listing 1: the non-temporal matrix data)
    sector1_arrays: tuple[str, ...] = ("values", "colidx")


class SpMVCacheSim:
    """Cache simulation of iterative CSR SpMV on a (scaled) A64FX.

    Construction performs the trace building and the L1-level reuse
    analysis; :meth:`events` then evaluates any sector configuration
    cheaply.  The L2 stream depends on the L1 way split (L1 hits are
    filtered out), so L2 reuse analyses are cached per L1 configuration.
    """

    def __init__(
        self,
        matrix: CSRMatrix,
        machine: A64FX,
        config: SimConfig | None = None,
        schedule: RowSchedule | None = None,
    ) -> None:
        self.matrix = matrix
        self.machine = machine
        self.config = config or SimConfig()
        if self.config.num_threads > machine.num_cores:
            raise ValueError(
                f"{self.config.num_threads} threads exceed {machine.num_cores} cores"
            )
        if schedule is None:
            schedule = static_schedule(matrix, self.config.num_threads)
        elif schedule.num_threads != self.config.num_threads:
            raise ValueError("schedule thread count differs from config")
        self.schedule = schedule
        # reference sector policy: way counts irrelevant here, only the
        # data-to-sector assignment matters for grouping
        self._assignment = listing1_policy(1)
        if set(self.config.sector1_arrays) != set(self._assignment.sector1_arrays):
            self._assignment = SectorPolicy(
                sector1_arrays=frozenset(self.config.sector1_arrays),
                l2_sector1_ways=1,
            )

        with obs_span("sim.trace_build", matrix=matrix.name,
                      threads=self.config.num_threads):
            per_thread = spmv_trace(matrix, None, schedule, line_size=machine.line_size)
            merged = interleave(per_thread)
        if self.periodic:
            self._demand = merged
            # warm-up period: iteration 0, with start-of-stream prefetch ramp
            warm = inject_prefetches(merged, self.config.l1_prefetch_distance)
            # steady period: iteration 1, wrap-aware injection, no ramp
            l1_stream = inject_prefetches(
                merged.with_iteration(1),
                self.config.l1_prefetch_distance,
                periodic=True,
            )
            self._l1_warm = warm
            self._l1_warm_rd = simulate(
                warm,
                machine.l1,
                self._assignment,
                level="l1",
                cache_ids=warm.threads.astype(np.int64),
            )
            self._l1_stream = l1_stream
            self._l1_rd = simulate(
                l1_stream,
                machine.l1,
                self._assignment,
                level="l1",
                cache_ids=l1_stream.threads.astype(np.int64),
                first_trace=warm,
                first_cache_ids=warm.threads.astype(np.int64),
            )
        else:
            merged = repeat_trace(merged, self.config.iterations)
            self._demand = merged

            # L1 stream: demand refs + L1 prefetches; private cache per thread
            l1_stream = inject_prefetches(merged, self.config.l1_prefetch_distance)
            self._l1_stream = l1_stream
            self._l1_rd = simulate(
                l1_stream,
                machine.l1,
                self._assignment,
                level="l1",
                cache_ids=l1_stream.threads.astype(np.int64),
            )
        self._l2_rd_cache: dict[int, tuple[MemoryTrace, SetAssocRD]] = {}

    # ------------------------------------------------------------------
    @property
    def periodic(self) -> bool:
        """Whether the single-period steady-state engine runs.

        Iteration 0 (prefetcher ramp-up) differs from the steady period,
        and the L2 streams of later iterations are not exactly periodic,
        so the engine covers the default two-iteration runs; any other
        iteration count simulates the repeated trace.
        """
        return self.config.iterations == 2

    @property
    def demand_trace(self) -> MemoryTrace:
        """The interleaved demand trace (no prefetches).

        One SpMV period in periodic mode; all ``iterations`` repetitions
        otherwise.
        """
        return self._demand

    def _final_iteration(self, trace: MemoryTrace) -> np.ndarray:
        return trace.iteration == self.config.iterations - 1

    def _l2_level(self, l1_sector1_ways: int) -> tuple[MemoryTrace, SetAssocRD]:
        """L2 stream + reuse analysis for a given L1 way split (cached)."""
        cached = self._l2_rd_cache.get(l1_sector1_ways)
        if cached is not None:
            return cached
        with obs_span("sim.l2_stream", l1_ways=l1_sector1_ways,
                      periodic=self.periodic):
            if self.periodic:
                # the L2 input is warm-period L1 misses followed by steady-period
                # L1 misses; injecting L2 prefetches over the concatenation keeps
                # the repeated trace's stream-boundary semantics, and injections
                # inherit their trigger's iteration tag, so the warm/steady split
                # of the injected stream is the contiguous iteration==0 prefix
                warm_miss = self._l1_warm_rd.miss_mask(l1_sector1_ways)
                steady_miss = self._l1_rd.miss_mask(l1_sector1_ways)
                l2_input = concat_traces(
                    [self._l1_warm.select(warm_miss), self._l1_stream.select(steady_miss)]
                )
                injected = inject_prefetches(l2_input, self.config.l2_prefetch_distance)
                steady_w = injected.iteration == 1
                warm_part = injected.select(~steady_w)
                l2_stream = injected.select(steady_w)
                cmgs = (l2_stream.threads // self.machine.cores_per_cmg).astype(np.int64)
                rd = simulate(
                    l2_stream,
                    self.machine.l2,
                    self._assignment,
                    level="l2",
                    cache_ids=cmgs,
                    first_trace=warm_part,
                    first_cache_ids=(
                        warm_part.threads // self.machine.cores_per_cmg
                    ).astype(np.int64),
                )
            else:
                l1_miss = self._l1_rd.miss_mask(l1_sector1_ways)
                l2_input = self._l1_stream.select(l1_miss)
                l2_stream = inject_prefetches(l2_input, self.config.l2_prefetch_distance)
                cmgs = (l2_stream.threads // self.machine.cores_per_cmg).astype(np.int64)
                rd = simulate(
                    l2_stream, self.machine.l2, self._assignment, level="l2", cache_ids=cmgs
                )
        self._l2_rd_cache[l1_sector1_ways] = (l2_stream, rd)
        return l2_stream, rd

    # ------------------------------------------------------------------
    def events(self, policy: SectorPolicy) -> CacheEvents:
        """PMU-style events of the final SpMV iteration under a policy."""
        obs_count("sim.events_queries")
        policy.validate(self.machine)
        if policy.l2_enabled or policy.l1_enabled:
            if set(policy.sector1_arrays) != set(self.config.sector1_arrays):
                raise ValueError(
                    "policy sector assignment differs from the simulated one; "
                    "build a new SpMVCacheSim for a different assignment"
                )
        l1_ways = policy.l1_sector1_ways
        l2_ways = policy.l2_sector1_ways

        l1_miss = self._l1_rd.miss_mask(l1_ways)
        l1_window = self._final_iteration(self._l1_stream)
        l1_refill = int(np.count_nonzero(l1_miss & l1_window))

        l2_stream, l2_rd = self._l2_level(l1_ways)
        l2_miss = l2_rd.miss_mask(l2_ways)
        window = self._final_iteration(l2_stream)
        miss_w = l2_miss & window
        demand_w = miss_w & ~l2_stream.is_prefetch
        prefetch_w = miss_w & l2_stream.is_prefetch
        dirty_w = miss_w & l2_stream.array_mask("y")
        return CacheEvents(
            l1_refill=l1_refill,
            l2_refill=int(miss_w.sum()),
            l2_refill_demand=int(demand_w.sum()),
            l2_refill_prefetch=int(prefetch_w.sum()),
            l2_writeback=int(dirty_w.sum()),
            per_array_l2_misses=per_array_counts(l2_stream.arrays, miss_w),
        )

    def baseline_events(self) -> CacheEvents:
        """Events with the sector cache disabled at both levels."""
        return self.events(no_sector_cache())

    def sweep(
        self, l2_way_options: tuple[int, ...], l1_way_options: tuple[int, ...] = (0,)
    ) -> dict[tuple[int, int], CacheEvents]:
        """Events for a grid of sector configurations (keyed (l2, l1) ways)."""
        out = {}
        for l1w in l1_way_options:
            for l2w in l2_way_options:
                out[(l2w, l1w)] = self.events(
                    SectorPolicy(
                        sector1_arrays=frozenset(self.config.sector1_arrays),
                        l2_sector1_ways=l2w,
                        l1_sector1_ways=l1w,
                    )
                )
        return out
