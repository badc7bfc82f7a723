"""Steady state priced over a physically repeated trace.

The models and the simulator price the steady state of iterative SpMV
from one period (:func:`repro.reuse.steady_state_reuse_distances`).  This
oracle is the pipeline that engine replaced: materialize ``iterations``
copies of the period with :func:`repro.core.repeat_trace`, run the plain
stack pass (:func:`repro.reuse.reuse_distances`) over the whole repeated
trace, grouped by cache set (:func:`repro.cachesim.set_index`) after
:func:`repro.cachesim.inject_prefetches` for the simulator, and count
only the final iteration.  Every pass here is exact (no window floor),
so the floored production passes are checked against exact distances.

:func:`doubled_engines` swaps these classes in for the simulator and the
model facade that :func:`repro.experiments.common.measure_matrix` uses,
so a whole sweep can be priced the old way and compared record by record.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np

from repro.cachesim import (
    CacheEvents,
    SimConfig,
    inject_prefetches,
    per_array_counts,
    set_index,
)
from repro.core import (
    MissPrediction,
    method_b_scale_factors,
    repeat_trace,
    spmv_trace,
    stream_misses,
    x_only_trace,
)
from repro.core.analytic import method_b_per_array
from repro.parallel import interleave
from repro.reuse import COLD, reuse_distances, scale_distances
from repro.spmv import static_schedule
from repro.spmv.sector_policy import SectorPolicy

from .masked import masked_prediction


def _repeated(per_thread, iterations: int):
    """The interleaved period repeated ``iterations`` times, plus the mask
    of its final (steady-state) iteration."""
    trace = repeat_trace(interleave(per_thread), iterations)
    return trace, trace.iteration == iterations - 1


class DoubledMethodA:
    """:class:`repro.core.MethodA` predictions from the repeated trace."""

    def __init__(self, matrix, machine, num_threads=1, iterations=2) -> None:
        schedule = static_schedule(matrix, num_threads)
        self.machine = machine
        self.trace, self.window = _repeated(
            spmv_trace(matrix, None, schedule, line_size=machine.line_size),
            iterations)
        self.sectors = self.trace.sectors(SectorPolicy(l2_sector1_ways=1))
        self.cmgs = (self.trace.threads // machine.cores_per_cmg).astype(np.int64)
        self.threads = self.trace.threads.astype(np.int64)
        self._rd: dict[tuple[str, bool], np.ndarray] = {}

    def rd(self, cache: str, split: bool) -> np.ndarray:
        """Distances with one LRU stack per CMG (``cache="cmg"``) or per
        thread, each split by sector when ``split``."""
        if (cache, split) not in self._rd:
            groups = self.cmgs if cache == "cmg" else self.threads
            if split:
                groups = groups * 2 + self.sectors
            self._rd[cache, split] = reuse_distances(self.trace.lines, groups)
        return self._rd[cache, split]

    def _predict(self, level: str, cache: str, policy: SectorPolicy) -> MissPrediction:
        policy.validate(self.machine)
        geometry = getattr(self.machine, level)
        ways = policy.l2_sector1_ways if level == "l2" else policy.l1_sector1_ways
        enabled = policy.l2_enabled if level == "l2" else policy.l1_enabled
        if enabled:
            n0, n1 = geometry.partition_lines(ways)
            rd = self.rd(cache, split=True)
            capacity = np.where(self.sectors == 1, n1, n0)
        else:
            rd = self.rd(cache, split=False)
            capacity = np.int64(geometry.capacity_lines)
        return masked_prediction(rd, capacity, self.trace.arrays, policy,
                                 self.window)

    def predict(self, policy: SectorPolicy) -> MissPrediction:
        return self._predict("l2", "cmg", policy)

    def predict_l1(self, policy: SectorPolicy) -> MissPrediction:
        return self._predict("l1", "thread", policy)

    def x_traffic_fraction(self, policy: SectorPolicy) -> float:
        pred = self.predict(policy)
        return pred.per_array.get("x", 0) / pred.l2_misses if pred.l2_misses else 0.0

    def cold_misses(self) -> int:
        """COLD markers of the first iteration."""
        first = self.trace.iteration == 0
        return int(np.count_nonzero((self.rd("cmg", split=False) >= COLD) & first))


class DoubledMethodB:
    """:class:`repro.core.MethodB` predictions from the repeated x trace."""

    def __init__(self, matrix, machine, num_threads=1, iterations=2) -> None:
        schedule = static_schedule(matrix, num_threads)
        self.matrix = matrix
        self.machine = machine
        trace, window = _repeated(
            x_only_trace(matrix, None, schedule, line_size=machine.line_size),
            iterations)
        cmgs = (trace.threads // machine.cores_per_cmg).astype(np.int64)
        self.num_cmgs_used = int(cmgs.max()) + 1 if len(trace) else 1
        self.x_rd = {
            "l2": reuse_distances(trace.lines, cmgs)[window],
            "l1": reuse_distances(trace.lines, trace.threads.astype(np.int64))[window],
        }
        self.s1, self.s2 = method_b_scale_factors(matrix)
        self.streams = stream_misses(matrix, machine.line_size)

    def x_misses(self, scale: float, capacity_lines: int, level: str = "l2") -> int:
        scaled = scale_distances(self.x_rd[level], scale)
        return int(np.count_nonzero(scaled >= capacity_lines))

    def predict(self, policy: SectorPolicy) -> MissPrediction:
        policy.validate(self.machine)
        per_array = method_b_per_array(
            self.matrix, self.machine, self.num_cmgs_used, self.streams,
            self.s1, self.s2, self.x_misses, policy)
        return MissPrediction(l2_misses=sum(per_array.values()),
                              per_array=per_array, method="B", policy=policy)

    def predict_l1(self, policy: SectorPolicy) -> MissPrediction:
        policy.validate(self.machine)
        if policy.l1_enabled:
            n0, _ = self.machine.l1.partition_lines(policy.l1_sector1_ways)
            scale, capacity = self.s1, n0
        else:
            scale, capacity = self.s2, self.machine.l1.capacity_lines
        streams = self.streams
        per_array = {
            "values": streams.values,
            "colidx": streams.colidx,
            "rowptr": streams.rowptr,
            "y": streams.y,
            "x": self.x_misses(scale, capacity, "l1"),
        }
        return MissPrediction(l2_misses=sum(per_array.values()),
                              per_array=per_array, method="B", policy=policy)


class DoubledModel:
    """The :class:`repro.core.CacheMissModel` surface over both doubled
    methods."""

    def __init__(self, matrix, machine, num_threads=1, iterations=2) -> None:
        kwargs = dict(num_threads=num_threads, iterations=iterations)
        self.methods = {"A": DoubledMethodA(matrix, machine, **kwargs),
                        "B": DoubledMethodB(matrix, machine, **kwargs)}

    def predict(self, policy, method="A"):
        return self.methods[method].predict(policy)

    def predict_l1(self, policy, method="A"):
        return self.methods[method].predict_l1(policy)

    def sweep(self, policies, method="A"):
        return [self.predict(policy, method) for policy in policies]


def set_distances(trace, geometry, sectors, cache_ids, split: bool) -> np.ndarray:
    """Exact in-set distances: one LRU stack per (cache, set), and per
    sector when ``split``."""
    groups = cache_ids * geometry.num_sets + set_index(trace.lines, geometry.num_sets)
    if split:
        groups = groups * 2 + sectors
    return reuse_distances(trace.lines, groups)


def set_misses(rd, geometry, sectors, sector1_ways: int) -> np.ndarray:
    """Misses of a way split: a reference misses iff its in-set distance
    reaches the ways of its stack (``rd`` split by sector iff
    ``sector1_ways``)."""
    if not sector1_ways:
        return rd >= geometry.ways
    return rd >= np.where(sectors == 1, sector1_ways, geometry.ways - sector1_ways)


class DoubledSim:
    """:meth:`repro.cachesim.SpMVCacheSim.events` over the repeated trace:
    L1 and L2 prefetches injected into the whole trace, every cache
    simulated from a cold start, events counted in the final iteration."""

    def __init__(self, matrix, machine, config: SimConfig | None = None,
                 schedule=None) -> None:
        self.machine = machine
        self.config = config = config or SimConfig()
        schedule = schedule or static_schedule(matrix, config.num_threads)
        self.assignment = SectorPolicy(
            sector1_arrays=frozenset(config.sector1_arrays), l2_sector1_ways=1)
        self.demand_trace, _ = _repeated(
            spmv_trace(matrix, None, schedule, line_size=machine.line_size),
            config.iterations)
        self.l1_stream = inject_prefetches(self.demand_trace,
                                           config.l1_prefetch_distance)
        self.l1_sectors = self.l1_stream.sectors(self.assignment)
        self._l1_rd: dict[bool, np.ndarray] = {}

    def l1_rd(self, split: bool) -> np.ndarray:
        if split not in self._l1_rd:
            self._l1_rd[split] = set_distances(
                self.l1_stream, self.machine.l1, self.l1_sectors,
                self.l1_stream.threads.astype(np.int64), split)
        return self._l1_rd[split]

    def events(self, policy: SectorPolicy) -> CacheEvents:
        policy.validate(self.machine)
        final = self.config.iterations - 1
        l1_stream = self.l1_stream
        l1_miss = set_misses(self.l1_rd(policy.l1_enabled), self.machine.l1,
                             self.l1_sectors, policy.l1_sector1_ways)
        l2_stream = inject_prefetches(l1_stream.select(l1_miss),
                                      self.config.l2_prefetch_distance)
        cmgs = (l2_stream.threads // self.machine.cores_per_cmg).astype(np.int64)
        l2_sectors = l2_stream.sectors(self.assignment)
        l2_rd = set_distances(l2_stream, self.machine.l2, l2_sectors, cmgs,
                              policy.l2_enabled)
        miss = set_misses(l2_rd, self.machine.l2, l2_sectors,
                          policy.l2_sector1_ways)
        miss &= l2_stream.iteration == final
        return CacheEvents(
            l1_refill=int(np.count_nonzero(
                l1_miss & (l1_stream.iteration == final))),
            l2_refill=int(miss.sum()),
            l2_refill_demand=int((miss & ~l2_stream.is_prefetch).sum()),
            l2_refill_prefetch=int((miss & l2_stream.is_prefetch).sum()),
            l2_writeback=int((miss & l2_stream.array_mask("y")).sum()),
            per_array_l2_misses=per_array_counts(l2_stream.arrays, miss),
        )


@contextmanager
def doubled_engines():
    """Price :func:`repro.experiments.common.measure_matrix` with the
    doubled-trace simulator and models while the context is open."""
    with mock.patch("repro.experiments.common.SpMVCacheSim", DoubledSim), \
            mock.patch("repro.experiments.common.CacheMissModel", DoubledModel):
        yield
