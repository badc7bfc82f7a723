"""Tiers 1 and 3 of the fidelity ladder.

Tier 1 (:class:`SampledMethodB`) is Method B with the exact single-period
stack pass replaced by a SHARDS-sampled one
(:func:`repro.reuse.sampling.spatial_sample_profile`): the x-only trace is
built exactly as Method B builds it, but only the hash-sampled fraction of
cache lines goes through the stack pass, so the pass costs roughly
``rate`` of tier 2's.  The analytic envelope around the x term — the
streamed-array branching — is byte-identical to tiers 0 and 2 (it is the
shared :func:`repro.core.analytic.method_b_per_array`).

Tier 3 adapters evaluate the set-associative cache simulation
(:mod:`repro.cachesim`) — the model's ground truth — in the ladder's wire
shapes.  ``predict`` reports simulated refill counts per policy;
``advise`` ranks through the same advisor rule as the other tiers but
with simulated events feeding the performance model.  Isolate-x candidates
need a second simulator instance (the sector *assignment* differs, which
the simulator bakes into its grouping).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..cachesim.hierarchy import SimConfig, SpMVCacheSim
from ..core.advisor import PolicyChoice, Recommendation, rank_candidates
from ..core.analytic import (
    method_b_per_array,
    method_b_scale_factors,
    stream_misses,
)
from ..core.classification import MatrixClass
from ..core.method_a import MissPrediction
from ..core.trace import x_only_trace
from ..machine.a64fx import A64FX
from ..machine.perfmodel import PerformanceModel
from ..obs.tracer import count as obs_count
from ..obs.tracer import span as obs_span
from ..parallel.interleave import interleave
from ..reuse.sampling import SpatialSampledProfile, spatial_sample_profile
from ..spmv.csr import CSRMatrix
from ..spmv.schedule import static_schedule
from ..spmv.sector_policy import SectorPolicy, isolate_x_policy

#: Sector-1 assignment of the isolate-x candidates (Section 3.1).
ISOLATE_X_ARRAYS = ("values", "colidx", "rowptr", "y")


class SampledMethodB:
    """Tier 1: Method B priced from a SHARDS-sampled stack pass."""

    def __init__(
        self,
        matrix: CSRMatrix,
        machine: A64FX,
        num_threads: int = 1,
        rate: float = 0.1,
    ) -> None:
        if matrix.nnz == 0:
            raise ValueError("method B requires a non-empty matrix")
        self.matrix = matrix
        self.machine = machine
        self.num_threads = num_threads
        self.rate = rate
        schedule = static_schedule(matrix, num_threads)
        with obs_span("sampled_b.trace_build", matrix=matrix.name,
                      threads=num_threads):
            per_thread = x_only_trace(
                matrix, None, schedule, line_size=machine.line_size
            )
            merged = interleave(per_thread)
        cmgs = (merged.threads // machine.cores_per_cmg).astype(np.int64)
        self.num_cmgs_used = int(cmgs.max()) + 1 if len(merged) else 1
        with obs_span("sampled_b.sample_pass", rate=rate,
                      references=len(merged)):
            self.sampled: SpatialSampledProfile = spatial_sample_profile(
                merged.lines, cmgs, rate=rate
            )
        self.s1, self.s2 = method_b_scale_factors(matrix)
        self._streams = stream_misses(matrix, machine.line_size)

    def x_misses(self, scale: float, capacity_lines: int) -> int:
        """Estimated misses of x references (rounded expectation)."""
        obs_count("sampled_b.profile_queries")
        return int(round(self.sampled.misses(capacity_lines, scale)))

    def x_misses_error(self, scale: float, capacity_lines: int) -> float:
        """Standard error of :meth:`x_misses` at the same query point."""
        return self.sampled.standard_error(capacity_lines, scale)

    def predict(self, policy: SectorPolicy) -> MissPrediction:
        """Predicted L2 misses of one steady-state iteration (estimated)."""
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


# ----------------------------------------------------------------------
# Tier 3: the cache simulation as ground truth
# ----------------------------------------------------------------------

def build_sim(
    matrix: CSRMatrix,
    machine: A64FX,
    base_config: SimConfig,
    sector1_arrays: tuple[str, ...] | None = None,
) -> SpMVCacheSim:
    """A simulator for one sector assignment (Listing-1 by default)."""
    config = base_config
    if sector1_arrays is not None:
        config = replace(base_config, sector1_arrays=sector1_arrays)
    return SpMVCacheSim(matrix, machine, config)


def simulated_predict(
    matrix: CSRMatrix,
    machine: A64FX,
    base_config: SimConfig,
    policies: list[dict],
    name: str,
) -> dict:
    """The ``predict`` wire result from simulated events (ground truth).

    Same shape as the Method-B result; ``method`` is ``"sim"`` and
    ``l2_misses`` is the simulator's refill count (``per_array`` breaks it
    down by triggering array, including prefetch-triggered fills, so the
    entries sum to ``l2_misses`` like the analytic tiers').
    """
    sims: dict[frozenset, SpMVCacheSim] = {}
    predictions = []
    for entry in policies:
        policy = SectorPolicy.from_dict(entry)
        assignment = (
            frozenset(policy.sector1_arrays)
            if (policy.l2_enabled or policy.l1_enabled)
            else frozenset(base_config.sector1_arrays)
        )
        sim = sims.get(assignment)
        if sim is None:
            sim = build_sim(matrix, machine, base_config, tuple(sorted(assignment)))
            sims[assignment] = sim
        events = sim.events(policy)
        per_array = {
            k: int(v) for k, v in events.per_array_l2_misses.items() if v
        }
        predictions.append({
            "policy": policy.to_dict(),
            "l2_misses": int(events.l2_refill),
            "per_array": per_array,
        })
    return {"name": name, "method": "sim", "predictions": predictions}


def simulated_recommendation(
    matrix: CSRMatrix,
    machine: A64FX,
    base_config: SimConfig,
    num_threads: int,
    way_options,
    consider_isolate_x: bool,
    min_ways: int,
    matrix_class: MatrixClass,
) -> Recommendation:
    """The advisor's ranking priced by *simulated* events.

    :func:`repro.core.advisor.rank_candidates` enumerates and ranks the
    candidates; the events feeding the performance model come from the
    simulation instead of the analytic surrogate.  The isolate-x
    simulator is built on the first isolate-x candidate priced.
    """
    perf = PerformanceModel(machine)
    sims: dict[tuple[str, ...] | None, SpMVCacheSim] = {}

    def simulated(arrays: tuple[str, ...] | None,
                  policy: SectorPolicy) -> PolicyChoice:
        if arrays not in sims:
            sims[arrays] = build_sim(matrix, machine, base_config, arrays)
        events = sims[arrays].events(policy)
        est = perf.estimate(matrix, events, num_threads)
        return PolicyChoice(
            policy=policy,
            predicted_l2_misses=int(events.l2_refill),
            predicted_seconds=est.seconds,
        )

    return rank_candidates(
        way_options=way_options,
        consider_isolate_x=consider_isolate_x,
        min_ways=min_ways,
        matrix_class=matrix_class,
        price=lambda policy: simulated(None, policy),
        price_isolate_x=lambda ways: simulated(
            ISOLATE_X_ARRAYS, isolate_x_policy(ways)),
    )
