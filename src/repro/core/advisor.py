"""Sector-cache policy advisor.

The paper's practical payoff: given a matrix and an execution setup, decide
*whether* to enable the sector cache, *how many* ways to give the
non-temporal data, and *which* arrays to isolate — the decisions a user
encodes in the FCC pragmas of Listing 1.  Section 3.1 sketches the
decision procedure by class; this module implements it quantitatively with
the cache-miss model (method B by default, since the advisor's point is
being cheap) and the performance model.

The advisor also evaluates the Section-3.1 alternative for class-(3)
matrices — additionally assigning ``rowptr`` and ``y`` to the small
partition so ``x`` gets the largest possible share.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machine.a64fx import A64FX
from ..machine.perfmodel import PerformanceModel
from ..spmv.csr import CSRMatrix
from ..spmv.sector_policy import SectorPolicy, isolate_x_policy, listing1_policy, no_sector_cache
from ..cachesim.events import CacheEvents
from .analytic import stream_misses
from .classification import MatrixClass, classify
from .method_b import MethodB


@dataclass(frozen=True)
class PolicyChoice:
    """One evaluated candidate policy."""

    policy: SectorPolicy
    predicted_l2_misses: int
    predicted_seconds: float

    @property
    def pragma(self) -> str:
        return self.policy.describe()

    def to_dict(self) -> dict:
        """JSON-serialisable form (the service wire format)."""
        return {
            "policy": self.policy.to_dict(),
            "predicted_l2_misses": int(self.predicted_l2_misses),
            "predicted_seconds": float(self.predicted_seconds),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PolicyChoice":
        return cls(
            policy=SectorPolicy.from_dict(payload["policy"]),
            predicted_l2_misses=int(payload["predicted_l2_misses"]),
            predicted_seconds=float(payload["predicted_seconds"]),
        )


@dataclass(frozen=True)
class Recommendation:
    """The advisor's verdict: best policy plus the evaluated field."""

    best: PolicyChoice
    baseline: PolicyChoice
    candidates: tuple[PolicyChoice, ...]
    matrix_class: MatrixClass

    @property
    def predicted_speedup(self) -> float:
        return self.baseline.predicted_seconds / self.best.predicted_seconds

    @property
    def worthwhile(self) -> bool:
        """True if enabling the sector cache is predicted to help at all."""
        return (
            self.best.policy.l2_enabled
            and self.best.predicted_l2_misses < self.baseline.predicted_l2_misses
        )

    def summary(self) -> str:
        lines = [
            f"matrix class: {self.matrix_class}",
            f"recommended: {self.best.pragma}",
            f"predicted L2 misses: {self.baseline.predicted_l2_misses} -> "
            f"{self.best.predicted_l2_misses}",
            f"predicted speedup: {self.predicted_speedup:.3f}x",
        ]
        if not self.worthwhile:
            lines.append("verdict: leave the sector cache disabled")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-serialisable form.

        The derived fields (``predicted_speedup``, ``worthwhile``) are
        included for consumers that only read the verdict;
        :meth:`from_dict` ignores them and recomputes.
        """
        return {
            "best": self.best.to_dict(),
            "baseline": self.baseline.to_dict(),
            "candidates": [choice.to_dict() for choice in self.candidates],
            "matrix_class": self.matrix_class.value,
            "predicted_speedup": float(self.predicted_speedup),
            "worthwhile": self.worthwhile,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Recommendation":
        return cls(
            best=PolicyChoice.from_dict(payload["best"]),
            baseline=PolicyChoice.from_dict(payload["baseline"]),
            candidates=tuple(
                PolicyChoice.from_dict(choice) for choice in payload["candidates"]
            ),
            matrix_class=MatrixClass(payload["matrix_class"]),
        )


def surrogate_choice(
    perf: PerformanceModel,
    nnz: int,
    streams,
    num_threads: int,
    policy: SectorPolicy,
    per_array: dict,
) -> PolicyChoice:
    """Price one candidate policy from its per-array miss counts.

    The single home of the model-level event surrogate shared by the full
    advisor, degraded mode and the fidelity ladder: all predicted misses
    are refills, the demand share is whatever the prefetchable streams
    cannot cover.  ``per_array`` is the zero-filtered miss dict of
    :func:`repro.core.analytic.method_b_per_array` (any x pricing).
    """
    misses = sum(per_array.values())
    prefetchable = sum(
        per_array.get(a, 0) for a in ("values", "colidx", "rowptr", "y")
    )
    events = CacheEvents(
        l1_refill=streams.total + nnz // 8,
        l2_refill=misses,
        l2_refill_demand=per_array.get("x", 0),
        l2_refill_prefetch=prefetchable,
        l2_writeback=streams.y if misses else 0,
    )
    est = perf.estimate_from_counts(nnz, events, num_threads)
    return PolicyChoice(
        policy=policy, predicted_l2_misses=misses, predicted_seconds=est.seconds
    )


def isolate_x_choice(
    perf: PerformanceModel,
    nnz: int,
    streams,
    num_threads: int,
    ways: int,
    x_misses: int,
) -> PolicyChoice:
    """Price the Section-3.1 isolate-x candidate for a way count.

    ``x`` owns partition 0 alone (its reuse distances need no scaling —
    the third case of Section 3.2.2, so ``x_misses`` is priced at scale
    1.0); everything else streams through sector 1.
    """
    misses = streams.total + x_misses
    events = CacheEvents(
        l1_refill=streams.total + nnz // 8,
        l2_refill=misses,
        l2_refill_demand=max(0, misses - streams.total),
        l2_refill_prefetch=min(misses, streams.total),
        l2_writeback=streams.y,
    )
    est = perf.estimate_from_counts(nnz, events, num_threads)
    return PolicyChoice(
        policy=isolate_x_policy(ways),
        predicted_l2_misses=misses,
        predicted_seconds=est.seconds,
    )


def recommend_from_predictions(
    *,
    machine: A64FX,
    num_threads: int,
    way_options,
    consider_isolate_x: bool,
    min_ways: int,
    matrix_class: MatrixClass,
    nnz: int,
    streams,
    per_array_fn,
    x_misses_fn,
) -> Recommendation:
    """Shared candidate enumeration and ranking of the sector advisor.

    ``per_array_fn(policy)`` supplies the per-array miss counts of one
    candidate and ``x_misses_fn(scale, capacity_lines)`` the x pricing for
    the isolate-x candidates; everything else — the candidate field, the
    prefetch-premature-eviction gate (``min_ways``), the class gate on
    isolate-x, the performance-model ranking and the fewer-ways tie-break
    — is identical no matter which fidelity tier computed the misses.
    """
    if not way_options:
        raise ValueError("way_options must not be empty")
    perf = PerformanceModel(machine)

    base_policy = no_sector_cache()
    baseline = surrogate_choice(
        perf, nnz, streams, num_threads, base_policy, per_array_fn(base_policy)
    )
    candidates = [baseline]
    for ways in way_options:
        if ways < min_ways:
            continue
        policy = listing1_policy(ways)
        candidates.append(
            surrogate_choice(
                perf, nnz, streams, num_threads, policy, per_array_fn(policy)
            )
        )
    if consider_isolate_x and matrix_class in (MatrixClass.CLASS3A, MatrixClass.CLASS3B):
        for ways in way_options:
            if ways < min_ways:
                continue
            n0, _ = machine.l2.partition_lines(ways)
            candidates.append(
                isolate_x_choice(
                    perf, nnz, streams, num_threads, ways, x_misses_fn(1.0, n0)
                )
            )
    best = min(
        candidates,
        key=lambda c: (c.predicted_seconds, c.policy.l2_sector1_ways),
    )
    return Recommendation(
        best=best,
        baseline=baseline,
        candidates=tuple(candidates),
        matrix_class=matrix_class,
    )


class SectorAdvisor:
    """Pick a sector policy for a matrix from model predictions alone.

    Every candidate is priced with one method-B pass (a single stack
    processing of the x trace serves every way split), then ranked by the
    performance model's predicted runtime; ties break toward fewer
    sector-1 ways (more space for the reusable data).
    """

    def __init__(
        self,
        machine: A64FX,
        num_threads: int = 48,
        way_options: tuple[int, ...] = (2, 3, 4, 5, 6),
        consider_isolate_x: bool = True,
        min_sector1_ways_with_prefetch: int = 4,
    ) -> None:
        if not way_options:
            raise ValueError("way_options must not be empty")
        self.machine = machine
        self.num_threads = num_threads
        self.way_options = way_options
        self.consider_isolate_x = consider_isolate_x
        #: Section 4.3: smaller sectors suffer premature eviction of
        #: prefetched lines; the advisor refuses them unless told otherwise.
        self.min_ways = min_sector1_ways_with_prefetch
        self.perf = PerformanceModel(machine)

    def recommend(self, matrix: CSRMatrix) -> Recommendation:
        """Evaluate candidates and return the ranked recommendation."""
        model = MethodB(matrix, self.machine, num_threads=self.num_threads)
        num_cmgs = -(-self.num_threads // self.machine.cores_per_cmg)
        cls = classify(matrix, self.machine, max(self.way_options), num_cmgs)
        streams = stream_misses(matrix, self.machine.line_size)
        return recommend_from_predictions(
            machine=self.machine,
            num_threads=self.num_threads,
            way_options=self.way_options,
            consider_isolate_x=self.consider_isolate_x,
            min_ways=self.min_ways,
            matrix_class=cls,
            nnz=matrix.nnz,
            streams=streams,
            per_array_fn=lambda policy: model.predict(policy).per_array,
            x_misses_fn=model.x_misses,
        )
