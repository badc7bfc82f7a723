"""Method (A): cache-miss prediction from the full SpMV memory trace.

Section 3.2.1 of the paper: generate the complete reference trace of the
SpMV kernel from the sparsity pattern (no execution), compute exact reuse
distances with stack processing, and apply Eq. (1)/(2):

* without partitioning, an access misses iff its reuse distance reaches the
  cache capacity;
* with partitioning, references to ``a``/``colidx`` are evaluated against
  the sector-1 capacity and all other references against sector 0
  (Eq. 2) — two stack passes in total.

Shared caches under multithreading use the concurrent reuse distance of the
MCS-fair interleaved trace, one logical LRU stack per CMG segment.  The
model is fully associative (the paper's choice); associativity, prefetching
and L1 filtering are exactly the effects the MAPE evaluation quantifies.

Each pass carries a window floor (:mod:`repro.reuse.cdq`) taken from the
cache geometry alone: the shared passes are queried at the full capacity
only, and a legal split leaves each sector at least one way, so the
partitioned passes are never queried below ``num_sets`` lines.  References
whose window is below the floor hit at every legal policy and are decided
without counting; their distances are placeholders, which is why the
profiles answer miss counts at legal capacities only.  The exact distances
live in ``tests/oracles/``.

Each stack pass runs over one SpMV period and is condensed into per-array
:class:`ReuseProfile` buckets (the single-pass-many-capacities property the
paper's Section 2.2 highlights), so every subsequent policy query —
``predict``, ``predict_l1``, ``x_traffic_fraction``, ``cold_misses`` — is a
handful of O(log n) ``searchsorted`` lookups instead of an O(n) mask sweep
over the 4M+9nnz-reference trace.  The 16-configuration sweeps of the
Figure 2/3 experiments are therefore nearly free after the two passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..machine.a64fx import A64FX
from ..obs.tracer import count as obs_count
from ..obs.tracer import span as obs_span
from ..parallel.interleave import interleave
from ..reuse.cdq import reuse_distances
from ..reuse.histogram import ReuseProfile, partition_profiles
from ..reuse.periodic import steady_state_reuse_distances
from ..spmv.csr import CSRMatrix
from ..spmv.schedule import static_schedule
from ..spmv.sector_policy import ARRAYS, MATRIX_DATA, SectorPolicy
from .trace import MemoryTrace, spmv_trace


@dataclass(frozen=True)
class MissPrediction:
    """Predicted miss counts of one steady-state SpMV iteration.

    ``l2_misses`` is the total miss count of the *predicted cache level*,
    whatever that level is: ``predict`` fills it with L2 misses, but
    ``predict_l1`` reports L1 misses in the same field (the name is
    historical).  Use the level-agnostic :attr:`misses` alias instead of
    special-casing L1 consumers.
    """

    l2_misses: int
    per_array: dict[str, int]
    method: str
    policy: SectorPolicy

    def __post_init__(self) -> None:
        for name in self.per_array:
            if name not in ARRAYS:
                raise ValueError(f"unknown array {name!r}")

    @property
    def misses(self) -> int:
        """Total predicted misses of the queried cache level (level-agnostic)."""
        return self.l2_misses


class MethodA:
    """Full-trace reuse-distance model of L2 (and L1) cache misses.

    Construction builds the trace; stack passes run lazily, are cached,
    and condense into per-array reuse profiles, after which any way split
    is an O(log n) thresholding query.
    """

    def __init__(
        self,
        matrix: CSRMatrix,
        machine: A64FX,
        num_threads: int = 1,
        iterations: int = 2,
    ) -> None:
        if num_threads > machine.num_cores:
            raise ValueError("more threads than cores")
        if iterations <= 0:
            raise ValueError("iterations must be positive")
        self.matrix = matrix
        self.machine = machine
        self.num_threads = num_threads
        self.iterations = iterations
        schedule = static_schedule(matrix, num_threads)
        with obs_span("method_a.trace_build", matrix=matrix.name,
                      threads=num_threads):
            per_thread = spmv_trace(matrix, None, schedule, line_size=machine.line_size)
            with obs_span("interleave"):
                # one SpMV period: every stack pass runs over it alone
                self.trace: MemoryTrace = interleave(per_thread)
        self._sectors = self.trace.sectors(SectorPolicy(l2_sector1_ways=1))
        self._cmgs = (self.trace.threads // machine.cores_per_cmg).astype(np.int64)
        self._array_sector = tuple(
            1 if name in MATRIX_DATA else 0 for name in ARRAYS
        )

    @property
    def periodic(self) -> bool:
        """Whether the passes price a warmed-up period (``iterations >= 2``)."""
        return self.iterations >= 2

    @property
    def num_cmgs_used(self) -> int:
        """CMG segments actually touched by the scheduled threads."""
        return int(self._cmgs.max()) + 1 if len(self.trace) else 1

    def _stack_pass(self, groups: np.ndarray, floor: int) -> np.ndarray:
        """One grouped stack pass over the period, floored at ``floor``.

        From the second iteration on the trace is periodic, so the
        steady-state distances come exactly from the one period
        (wrap-around reuse for period-first accesses); a single iteration
        is a plain cold pass.  ``floor`` is the smallest capacity any
        legal policy queries the pass at, so the placeholder distances
        below it never change a miss count.
        """
        with obs_span("method_a.stack_pass", periodic=self.periodic,
                      references=len(self.trace)):
            if self.periodic:
                return steady_state_reuse_distances(
                    self.trace.lines, groups, window_floor=floor)
            return reuse_distances(self.trace.lines, groups, window_floor=floor)

    # -- floors: a shared pass is queried at the full capacity only, a
    # partitioned one at sector capacities of at least one way (num_sets)
    @cached_property
    def _rd_partitioned(self) -> np.ndarray:
        return self._stack_pass(self._cmgs * 2 + self._sectors,
                                self.machine.l2.num_sets)

    @cached_property
    def _rd_shared(self) -> np.ndarray:
        return self._stack_pass(self._cmgs, self.machine.l2.capacity_lines)

    @cached_property
    def _rd_l1_partitioned(self) -> np.ndarray:
        threads = self.trace.threads.astype(np.int64)
        return self._stack_pass(threads * 2 + self._sectors,
                                self.machine.l1.num_sets)

    @cached_property
    def _rd_l1_shared(self) -> np.ndarray:
        return self._stack_pass(self.trace.threads.astype(np.int64),
                                self.machine.l1.capacity_lines)

    # -- per-array reuse profiles of the period -------------------------
    def _array_profiles(self, rd: np.ndarray) -> tuple[ReuseProfile, ...]:
        with obs_span("method_a.profile_build"):
            return partition_profiles(rd, self.trace.arrays, len(ARRAYS))

    @cached_property
    def _profiles_partitioned(self) -> tuple[ReuseProfile, ...]:
        return self._array_profiles(self._rd_partitioned)

    @cached_property
    def _profiles_shared(self) -> tuple[ReuseProfile, ...]:
        return self._array_profiles(self._rd_shared)

    @cached_property
    def _profiles_l1_partitioned(self) -> tuple[ReuseProfile, ...]:
        return self._array_profiles(self._rd_l1_partitioned)

    @cached_property
    def _profiles_l1_shared(self) -> tuple[ReuseProfile, ...]:
        return self._array_profiles(self._rd_l1_shared)

    @cached_property
    def _cold_misses(self) -> int:
        # compulsory misses = distinct (CMG, line) pairs of one period
        if not len(self.trace):
            return 0
        span = int(self.trace.lines.max()) + 1
        return int(np.unique(self._cmgs * span + self.trace.lines).size)

    def _query(
        self,
        profiles: tuple[ReuseProfile, ...],
        capacities: tuple[int, ...],
        policy: SectorPolicy,
    ) -> MissPrediction:
        obs_count("method_a.profile_queries")
        per_array = {
            name: profiles[aid].misses(capacities[aid])
            for aid, name in enumerate(ARRAYS)
        }
        return MissPrediction(
            l2_misses=sum(per_array.values()),
            per_array={k: v for k, v in per_array.items() if v},
            method="A",
            policy=policy,
        )

    # ------------------------------------------------------------------
    def predict(self, policy: SectorPolicy) -> MissPrediction:
        """Predicted L2 misses of one steady-state iteration (Eq. 2)."""
        policy.validate(self.machine)
        if policy.l2_enabled and frozenset(policy.sector1_arrays) != MATRIX_DATA:
            raise ValueError("policy sector assignment differs from the modelled one")
        n0, n1 = self.machine.l2.partition_lines(policy.l2_sector1_ways)
        if policy.l2_enabled:
            profiles = self._profiles_partitioned
            capacities = tuple(n1 if s else n0 for s in self._array_sector)
        else:
            profiles = self._profiles_shared
            capacities = (int(self.machine.l2.capacity_lines),) * len(ARRAYS)
        return self._query(profiles, capacities, policy)

    def predict_l1(self, policy: SectorPolicy) -> MissPrediction:
        """Predicted private-L1 misses, summed over threads (Section 4.5.4).

        The sum is reported in the prediction's level-agnostic
        :attr:`MissPrediction.misses` (alias of the historical ``l2_misses``
        field).
        """
        policy.validate(self.machine)
        n0, n1 = self.machine.l1.partition_lines(policy.l1_sector1_ways)
        if policy.l1_enabled:
            profiles = self._profiles_l1_partitioned
            capacities = tuple(n1 if s else n0 for s in self._array_sector)
        else:
            profiles = self._profiles_l1_shared
            capacities = (int(self.machine.l1.capacity_lines),) * len(ARRAYS)
        return self._query(profiles, capacities, policy)

    def x_traffic_fraction(self, policy: SectorPolicy) -> float:
        """Fraction of predicted misses caused by x references (Section 4.5.5)."""
        pred = self.predict(policy)
        if pred.l2_misses == 0:
            return 0.0
        return pred.per_array.get("x", 0) / pred.l2_misses

    def cold_misses(self) -> int:
        """Compulsory misses of the first iteration (distinct lines touched)."""
        return self._cold_misses
