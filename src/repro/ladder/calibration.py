"""Calibrated error bounds of the fidelity ladder.

Error metric
------------
All bounds speak about the *floored relative error* of a predicted L2
miss count against the tier-3 (simulated) ground truth::

    err = |prediction - truth| / max(truth, stream_lines)

where ``stream_lines`` is the matrix's total streaming line count of one
iteration (:attr:`repro.core.analytic.StreamMisses.total`).  The floor
keeps the metric meaningful where the truth is near zero (a class-1
matrix with a handful of cold misses would otherwise make any surrogate
look infinitely wrong while being off by a rounding error's worth of
traffic); ``stream_lines`` is the natural unit — it is the traffic one
whole pass over the matrix costs.

Bound composition
-----------------
* Tier 2 vs tier 3 is a *model* error (Method B's analytic envelope and
  average-scaling assumption vs the set-associative simulation); it is
  calibrated per paper class, worst-cased over the generator collection
  and the advisor's policy grid; ``test_observed_errors_within_reported_bounds``
  in ``tests/ladder/test_engine.py`` re-measures every tier's observed
  error against it on matrices of all four paper classes.
* Tier 0 adds the fit-test surrogate's error *vs tier 2*, also calibrated
  per class — but refined per request: when every x fit test is deep
  (clearly inside or clearly outside capacity by ``fit_margin``), the
  all-or-nothing approximation agrees with the profile query and the
  small ``tier0_deep_bound`` applies instead.
* Tier 1 adds the sampling error vs tier 2: ``z`` standard errors of the
  sampled estimate (known after the queries run) plus a calibrated bias
  slack for whole-line inclusion correlation.
* Tier 3 is the ground truth: bound 0.

Classes are evaluated *per policy* (the class depends on the way split);
a request's bound is the worst over its policies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.classification import MatrixClass


@dataclass(frozen=True)
class LadderCalibration:
    """Calibrated constants behind the per-tier error bounds."""

    #: per-class floored relative error of tier 2 vs the simulation,
    #: worst-cased over the generator collection and the policy grid.
    #: The class-2 constant is dominated by the no-sector-cache
    #: configuration, where the scale-factor interference model can
    #: predict x thrashing while the set-associative cache keeps the
    #: frequently-touched x lines resident — the analytic tiers are
    #: honest about being order-of-magnitude surrogates there.
    model_bound: dict[str, float] = field(default_factory=lambda: {
        MatrixClass.CLASS1.value: 0.65,
        MatrixClass.CLASS2.value: 7.00,
        MatrixClass.CLASS3A.value: 0.65,
        MatrixClass.CLASS3B.value: 0.95,
    })
    #: per-class extra error of the tier-0 fit test vs tier 2
    tier0_bound: dict[str, float] = field(default_factory=lambda: {
        MatrixClass.CLASS1.value: 0.05,
        MatrixClass.CLASS2.value: 0.30,
        MatrixClass.CLASS3A.value: 0.40,
        MatrixClass.CLASS3B.value: 0.40,
    })
    #: tier-0 term when every x fit test is deep (see :meth:`deep_fit`)
    tier0_deep_bound: float = 0.15
    #: a fit test is "deep" when the scaled x footprint is below
    #: ``fit_margin * capacity`` or above ``capacity / fit_margin``
    fit_margin: float = 0.5
    #: a-priori extra error of tier 1 vs tier 2 (before its queries run)
    tier1_apriori: float = 0.25
    #: posterior tier-1 term: z standard errors plus bias slack
    sampling_z: float = 3.0
    sampling_bias: float = 0.10
    #: default SHARDS sampling rate of tier 1
    sampling_rate: float = 0.1

    def model_term(self, cls_value: str) -> float:
        return self.model_bound[cls_value]

    def tier0_term(self, cls_value: str, deep: bool) -> float:
        if deep:
            return min(self.tier0_deep_bound, self.tier0_bound[cls_value])
        return self.tier0_bound[cls_value]

    def deep_fit(self, scaled_x_lines: float, capacity_lines: int) -> bool:
        """True when the all-or-nothing fit test is unambiguous."""
        return (
            scaled_x_lines <= self.fit_margin * capacity_lines
            or scaled_x_lines * self.fit_margin >= capacity_lines
        )


DEFAULT_CALIBRATION = LadderCalibration()
