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


def advisor_class(matrix, machine: A64FX, num_threads: int, way_options) -> MatrixClass:
    """The class gating the isolate-x candidates: the footprint of a
    ``CSRMatrix`` or its dims at the widest way split offered."""
    if not way_options:
        raise ValueError("way_options must not be empty")
    return classify(matrix, machine, max(way_options),
                    machine.cmgs_used(num_threads))


def candidate_ways(
    way_options, consider_isolate_x: bool, min_ways: int, matrix_class: MatrixClass
) -> tuple[list[int], list[int]]:
    """Sector-1 way counts of the Listing-1 and the isolate-x candidates:
    none below ``min_ways`` (prefetched lines would be evicted early,
    Section 4.3), and isolate-x only for class (3a)/(3b)."""
    if not way_options:
        raise ValueError("way_options must not be empty")
    ways = [w for w in way_options if w >= min_ways]
    isolate = consider_isolate_x and matrix_class in (
        MatrixClass.CLASS3A, MatrixClass.CLASS3B
    )
    return ways, ways if isolate else []


def rank_candidates(
    *,
    way_options,
    consider_isolate_x: bool,
    min_ways: int,
    matrix_class: MatrixClass,
    price,
    price_isolate_x,
) -> Recommendation:
    """The sector advisor's rule, whichever tier prices it.

    ``price(policy)`` prices the baseline and each Listing-1 split and
    ``price_isolate_x(ways)`` each isolate-x split, as a
    :class:`PolicyChoice`.  The fastest wins; ties break toward fewer
    sector-1 ways (more space for the reusable data).
    """
    listing1, isolate = candidate_ways(
        way_options, consider_isolate_x, min_ways, matrix_class
    )
    candidates = [price(no_sector_cache())]
    candidates += [price(listing1_policy(ways)) for ways in listing1]
    candidates += [price_isolate_x(ways) for ways in isolate]
    best = min(candidates,
               key=lambda c: (c.predicted_seconds, c.policy.l2_sector1_ways))
    return Recommendation(best=best, baseline=candidates[0],
                          candidates=tuple(candidates), matrix_class=matrix_class)


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
    """The advisor's ranking priced by a miss model (tiers 0 to 2).

    ``per_array_fn(policy)`` supplies the per-array miss counts of one
    candidate and ``x_misses_fn(scale, capacity_lines)`` the x pricing for
    the isolate-x candidates; both feed the event surrogate, whichever
    fidelity tier computed the misses.
    """
    perf = PerformanceModel(machine)

    def price(policy: SectorPolicy) -> PolicyChoice:
        return surrogate_choice(
            perf, nnz, streams, num_threads, policy, per_array_fn(policy)
        )

    def price_isolate_x(ways: int) -> PolicyChoice:
        n0, _ = machine.l2.partition_lines(ways)
        return isolate_x_choice(
            perf, nnz, streams, num_threads, ways, x_misses_fn(1.0, n0)
        )

    return rank_candidates(
        way_options=way_options,
        consider_isolate_x=consider_isolate_x,
        min_ways=min_ways,
        matrix_class=matrix_class,
        price=price,
        price_isolate_x=price_isolate_x,
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

    def recommend(self, matrix: CSRMatrix) -> Recommendation:
        """Evaluate candidates and return the ranked recommendation."""
        model = MethodB(matrix, self.machine, num_threads=self.num_threads)
        streams = stream_misses(matrix, self.machine.line_size)
        return recommend_from_predictions(
            machine=self.machine,
            num_threads=self.num_threads,
            way_options=self.way_options,
            consider_isolate_x=self.consider_isolate_x,
            min_ways=self.min_ways,
            matrix_class=advisor_class(
                matrix, self.machine, self.num_threads, self.way_options
            ),
            nnz=matrix.nnz,
            streams=streams,
            per_array_fn=lambda policy: model.predict(policy).per_array,
            x_misses_fn=model.x_misses,
        )
