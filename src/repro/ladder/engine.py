"""The fidelity ladder: SLO-aware tier selection and escalation.

``Ladder.answer`` evaluates one classify/predict/advise request at the
cheapest tier whose *a-priori* error bound could satisfy the requested
accuracy SLO, then escalates tier by tier until the *posterior* bound
(known once the tier's queries ran — tier 1's statistical bound depends
on the sampled miss counts) actually meets it, returning the answer
together with ``(tier, bound, cost)``:

====  ===========================================  ==================
tier  engine                                       bound
====  ===========================================  ==================
0     closed forms (:mod:`repro.ladder.tier0`)     calibrated + fit test
1     SHARDS-sampled stack pass (:class:`SampledMethodB`)  statistical
2     exact single-period stack pass (:class:`MethodB`)    calibrated model
3     set-associative simulation (:mod:`repro.cachesim`)   0 (ground truth)
====  ===========================================  ==================

Bounds are floored relative errors against tier-3 ground truth (see
:mod:`repro.ladder.calibration` for the metric and the composition).
``classify`` is closed-form exact, so it always answers at tier 0 with
bound 0.  With no SLO the ladder answers at ``min(2, max_tier)``, the
default fidelity.  This is the only answer path: the service worker
sends every classify/predict/advise task through :meth:`Ladder.answer_task`
(a plain request is a tier-2 answer without fidelity metadata), and the
delta engine prices its patched stack pass through
:meth:`Ladder.model_result`, the same code that builds tier-1/2 results.

Each tier evaluation of a ladder-flagged request runs under an ``obs``
span named ``ladder.tier<N>``, so per-tier self seconds flow into the
service's per-phase metrics and the absence of a ``method_b.stack_pass``
span is observable evidence that a cheap tier answered.  A plain request
opens no tier span, so its model spans sit directly under the worker's
root in traces and phase metrics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from ..core.advisor import advisor_class, candidate_ways, recommend_from_predictions
from ..core.analytic import method_b_scale_factors, stream_misses
from ..core.classification import classify
from ..core.method_b import MethodB
from ..machine.a64fx import A64FX
from ..obs.tracer import NULL_SPAN
from ..obs.tracer import span as obs_span
from ..spmv.csr import CSRMatrix
from ..spmv.sector_policy import SectorPolicy
from .calibration import DEFAULT_CALIBRATION
from .cost import DEFAULT_COST_MODELS
from .tier0 import MatrixDims, closed_answer, dims_from_task, x_lines
from .tiers import SampledMethodB, simulated_predict, simulated_recommendation

TIERS = (0, 1, 2, 3)


@dataclass(frozen=True)
class _QueryPoint:
    """One x-pricing site of a request: its class and profile query.

    ``scale``/``capacity`` are ``None`` when the shared branching prices x
    as exactly zero (the retained no-partitioning case) — every analytic
    tier then agrees by construction and the point contributes no
    surrogate error.
    """

    cls_value: str
    scale: float | None
    capacity: int | None


@dataclass(frozen=True)
class LadderAnswer:
    """One answered request: the wire result plus fidelity metadata."""

    result: dict
    endpoint: str
    tier: int
    error_bound: float
    cost_seconds: float
    predicted_cost_seconds: float
    tiers_tried: tuple[int, ...]
    tier_bounds: tuple[float, ...]
    accuracy_slo: float | None
    slo_met: bool

    @property
    def escalations(self) -> int:
        return max(0, len(self.tiers_tried) - 1)

    def fidelity(self) -> dict:
        """JSON fidelity metadata (the service envelope's ``fidelity``)."""
        return fidelity_payload(
            self.tier, self.error_bound, self.accuracy_slo,
            self.cost_seconds, self.predicted_cost_seconds,
            self.tiers_tried, self.tier_bounds,
        )


def fidelity_payload(
    tier: int, error_bound: float, accuracy_slo: float | None,
    cost_seconds: float = 0.0, predicted_cost_seconds: float = 0.0,
    tiers_tried=(), tier_bounds=(),
) -> dict:
    """The wire ``fidelity`` object of one answer, in its one key order.

    Built here for ladder answers, cache-served answers (no cost, no
    tiers tried) and delta answers (which append ``drift``).
    """
    return {
        "tier": tier,
        "error_bound": error_bound,
        "accuracy_slo": accuracy_slo,
        "slo_met": accuracy_slo is None or error_bound <= accuracy_slo,
        "cost_seconds": cost_seconds,
        "predicted_cost_seconds": predicted_cost_seconds,
        "tiers_tried": list(tiers_tried),
        "tier_bounds": list(tier_bounds),
        "escalations": max(0, len(tiers_tried) - 1),
    }


@dataclass(frozen=True)
class _Request:
    """Normalized inputs of one ladder evaluation."""

    endpoint: str
    dims: MatrixDims
    name: str
    materialize: Callable[[], CSRMatrix]
    policy_dicts: tuple[dict, ...] = ()
    way_options: tuple[int, ...] = ()
    consider_isolate_x: bool = True
    min_ways: int = 4
    #: open a ``ladder.tier<N>`` span per evaluated tier
    tier_spans: bool = True

    @classmethod
    def from_task(cls, task: dict, dims: MatrixDims, name: str,
                  materialize: Callable[[], CSRMatrix]) -> "_Request":
        """The request a canonical service task asks (see service.protocol)."""
        return cls(
            endpoint=task["endpoint"],
            dims=dims,
            name=name,
            materialize=materialize,
            policy_dicts=tuple(task.get("policies") or ()),
            way_options=tuple(task.get("way_options") or ()),
            consider_isolate_x=task.get("consider_isolate_x", True),
            min_ways=task.get("min_sector1_ways_with_prefetch", 4),
            tier_spans=has_ladder_flags(task),
        )


def has_ladder_flags(task: dict) -> bool:
    """Whether a canonical task carries ``accuracy``/``max_tier``.

    A plain task is answered at tier 2 like ``max_tier: 2``, but keeps
    the plain wire and trace shapes: no fidelity metadata and no
    ``ladder.tier<N>`` span between the worker's root and the model.
    """
    return task.get("accuracy") is not None or task.get("max_tier") is not None


class Ladder:
    """Four-tier prediction engine with cost estimates and error bounds."""

    def __init__(self, setup, sampling_rate: float | None = None) -> None:
        self.setup = setup
        self.machine: A64FX = setup.machine()
        self.sampling_rate = (DEFAULT_CALIBRATION.sampling_rate
                              if sampling_rate is None else sampling_rate)

    # -- public API ----------------------------------------------------
    def answer(
        self,
        endpoint: str,
        dims: MatrixDims,
        materialize: Callable[[], CSRMatrix],
        *,
        name: str,
        accuracy: float | None = None,
        max_tier: int = 3,
        policies: list[dict] | None = None,
        way_options: list[int] | None = None,
        consider_isolate_x: bool = True,
        min_sector1_ways_with_prefetch: int = 4,
    ) -> LadderAnswer:
        """Answer one request at the cheapest SLO-satisfying tier.

        ``accuracy`` is the floored-relative-error SLO (``None`` means
        "the historical default fidelity": tier ``min(2, max_tier)``);
        ``max_tier`` caps escalation.  ``policies`` (canonical policy
        dicts) parameterize ``predict``; ``way_options`` & friends
        parameterize ``classify``/``advise``.
        """
        return self._answer(
            _Request(
                endpoint=endpoint,
                dims=dims,
                name=name,
                materialize=_memoize(materialize),
                policy_dicts=tuple(policies or ()),
                way_options=tuple(way_options or ()),
                consider_isolate_x=consider_isolate_x,
                min_ways=min_sector1_ways_with_prefetch,
            ),
            accuracy, max_tier,
        )

    def answer_task(self, task: dict, name: str,
                    materialize: Callable[[], CSRMatrix]) -> LadderAnswer:
        """Answer a canonical service task (see service.protocol).

        ``name`` is the task's ``matrix_name``, computed once by the
        caller.  Dims come from the materialized matrix, so a malformed
        inline matrix fails exactly as a direct model call would and COO
        duplicates count once; only a named matrix reads the per-process
        dims memo, seeded by this same build on its first touch.
        """
        materialize = _memoize(materialize)
        dims = (dims_from_task(task, self.machine, materialize)
                if task["matrix"]["kind"] == "named"
                else MatrixDims.of(materialize()))
        return self._answer(
            _Request.from_task(task, dims, name, materialize),
            task.get("accuracy"), task.get("max_tier", 3),
        )

    def model_result(self, task: dict, model: MethodB) -> dict:
        """The predict/advise result of a task priced by a prepared model:
        the tier-2 answer when the caller supplies the stack pass (the
        delta engine seeds it with patched distances)."""
        matrix = model.matrix
        return self._model_result(
            _Request.from_task(task, MatrixDims.of(matrix), matrix.name,
                               lambda: matrix),
            model,
        )

    def _answer(self, request: _Request, accuracy: float | None,
                max_tier: int) -> LadderAnswer:
        endpoint = request.endpoint
        if endpoint not in ("classify", "predict", "advise"):
            raise ValueError(f"no ladder for endpoint {endpoint!r}")
        if max_tier not in TIERS:
            raise ValueError(f"max_tier must be one of {TIERS}")
        if accuracy is not None and accuracy <= 0:
            raise ValueError("accuracy SLO must be positive")
        if endpoint == "classify":
            # closed-form exact: bound 0 satisfies every SLO at tier 0
            started = time.perf_counter()
            with self._tier_span(0, request):
                result, _ = self._evaluate(0, request)
            cost = time.perf_counter() - started
            return LadderAnswer(
                result=result, endpoint=endpoint, tier=0, error_bound=0.0,
                cost_seconds=cost,
                predicted_cost_seconds=self.predicted_cost(
                    0, request.dims.nnz, 1),
                tiers_tried=(0,), tier_bounds=(0.0,),
                accuracy_slo=accuracy, slo_met=True,
            )
        return self._escalate(request, accuracy, max_tier)

    def predicted_cost(self, tier: int, nnz: int, num_policies: int) -> float:
        return DEFAULT_COST_MODELS[tier].predict_seconds(nnz, num_policies)

    # -- bounds --------------------------------------------------------
    def _query_points(self, request: _Request) -> tuple[_QueryPoint, ...]:
        dims, machine = request.dims, self.machine
        cmgs = machine.cmgs_used(self.setup.num_threads)
        s1, s2 = method_b_scale_factors(dims)
        line = machine.line_size

        def point(ways: int, scale_override: float | None = None) -> _QueryPoint:
            cls = classify(dims, machine, ways, cmgs).value
            if ways > 0:
                n0, _ = machine.l2.partition_lines(ways)
                return _QueryPoint(cls, scale_override or s1, n0)
            total = machine.l2.capacity_lines
            working = dims.x_bytes + (dims.total_bytes - dims.x_bytes) // cmgs
            if working > total * line:
                return _QueryPoint(cls, s2, total)
            return _QueryPoint(cls, None, None)

        if request.endpoint == "predict":
            return tuple(point(SectorPolicy.from_dict(entry).l2_sector1_ways)
                         for entry in request.policy_dicts)
        # advise: the query points of the advisor's candidate field
        listing1, isolate = candidate_ways(
            request.way_options, request.consider_isolate_x, request.min_ways,
            advisor_class(dims, machine, self.setup.num_threads,
                          request.way_options),
        )
        return (point(0), *map(point, listing1),
                *(point(ways, scale_override=1.0) for ways in isolate))

    def _profile_queries(self, request: _Request) -> list | None:
        """The ``(scale, capacity)`` pairs tier 2 asks of its Method B, so
        that its stack pass counts only what they tell apart.

        ``None`` (the exact pass) for a request the model rejects, such as
        an empty matrix or a way split the cache does not have: the model
        then raises its own error, exactly as without query points.
        """
        try:
            points = self._query_points(request)
        except ValueError:
            return None
        return [(pt.scale, pt.capacity) for pt in points if pt.scale is not None]

    def _floor(self, dims: MatrixDims) -> int:
        return max(1, stream_misses(dims, self.machine.line_size).total)

    def apriori_bound(self, tier: int, request: _Request) -> float:
        """Worst-case bound of a tier before evaluating it."""
        if tier >= 3:
            return 0.0
        cal = DEFAULT_CALIBRATION
        line = self.machine.line_size
        worst = 0.0
        for pt in self._query_points(request):
            term = cal.model_term(pt.cls_value)
            if pt.scale is not None:
                if tier == 1:
                    term += cal.tier1_apriori
                elif tier == 0:
                    deep = cal.deep_fit(
                        x_lines(request.dims, line) * pt.scale, pt.capacity
                    )
                    term += cal.tier0_term(pt.cls_value, deep)
            worst = max(worst, term)
        return worst

    def _posterior_bound(self, tier: int, request: _Request,
                         model: SampledMethodB | None) -> float:
        """Bound of a tier once its queries ran (tightens tier 1)."""
        if tier != 1 or model is None:
            return self.apriori_bound(tier, request)
        cal = DEFAULT_CALIBRATION
        floor = self._floor(request.dims)
        worst = 0.0
        for pt in self._query_points(request):
            term = cal.model_term(pt.cls_value)
            if pt.scale is not None:
                se = model.x_misses_error(pt.scale, pt.capacity)
                term += cal.sampling_z * se / floor + cal.sampling_bias
            worst = max(worst, term)
        return worst

    # -- escalation ----------------------------------------------------
    def _escalate(self, request: _Request, accuracy: float | None,
                  max_tier: int) -> LadderAnswer:
        allowed = [t for t in TIERS if t <= max_tier]
        if accuracy is None:
            allowed = [min(2, max_tier)]
        tried: list[int] = []
        bounds: list[float] = []
        total_cost = 0.0
        result: dict = {}
        posterior = 0.0
        tier = allowed[-1]
        for index, candidate in enumerate(allowed):
            last = index == len(allowed) - 1
            if (accuracy is not None and not last
                    and self.apriori_bound(candidate, request) > accuracy):
                continue  # this tier cannot satisfy the SLO: skip past it
            started = time.perf_counter()
            with self._tier_span(candidate, request):
                result, model = self._evaluate(candidate, request)
            total_cost += time.perf_counter() - started
            posterior = self._posterior_bound(candidate, request, model)
            tried.append(candidate)
            bounds.append(posterior)
            tier = candidate
            if accuracy is None or posterior <= accuracy or last:
                break
        return LadderAnswer(
            result=result,
            endpoint=request.endpoint,
            tier=tier,
            error_bound=posterior,
            cost_seconds=total_cost,
            predicted_cost_seconds=self.predicted_cost(
                tier, request.dims.nnz,
                max(1, len(request.policy_dicts) or len(request.way_options)),
            ),
            tiers_tried=tuple(tried),
            tier_bounds=tuple(bounds),
            accuracy_slo=accuracy,
            slo_met=accuracy is None or posterior <= accuracy,
        )

    # -- tier evaluation -----------------------------------------------
    @staticmethod
    def _tier_span(tier: int, request: _Request):
        if not request.tier_spans:
            return NULL_SPAN
        return obs_span(f"ladder.tier{tier}", endpoint=request.endpoint)

    def _evaluate(
        self, tier: int, request: _Request
    ) -> tuple[dict, SampledMethodB | None]:
        threads = self.setup.num_threads
        endpoint = request.endpoint
        if endpoint == "classify" or tier == 0:
            return closed_answer(
                endpoint, request.dims, self.machine, threads, request.name,
                way_options=request.way_options,
                policies=request.policy_dicts,
                consider_isolate_x=request.consider_isolate_x,
                min_ways=request.min_ways,
            ), None
        matrix = request.materialize()
        if tier == 3:
            if endpoint == "predict":
                return simulated_predict(
                    matrix, self.machine, self.setup.sim_config(),
                    list(request.policy_dicts), matrix.name,
                ), None
            return simulated_recommendation(
                matrix, self.machine, self.setup.sim_config(), threads,
                tuple(request.way_options), request.consider_isolate_x,
                request.min_ways,
                advisor_class(matrix, self.machine, threads, request.way_options),
            ).to_dict(), None
        if tier == 1:
            model: SampledMethodB | MethodB = SampledMethodB(
                matrix, self.machine, num_threads=threads,
                rate=self.sampling_rate,
            )
        else:
            # the advisor always prices with the two-iteration periodic
            # model, whatever iteration count the setup measures
            model = MethodB(matrix, self.machine, num_threads=threads,
                            iterations=(self.setup.iterations
                                        if endpoint == "predict" else 2),
                            query_points=self._profile_queries(request))
        return (self._model_result(request, model),
                model if tier == 1 else None)

    def _model_result(self, request: _Request,
                      model: SampledMethodB | MethodB) -> dict:
        """A tier-1/2 predict or advise result from a stack-pass model."""
        matrix = model.matrix
        if request.endpoint == "predict":
            predictions = []
            for entry in request.policy_dicts:
                prediction = model.predict(SectorPolicy.from_dict(entry))
                predictions.append({
                    "policy": prediction.policy.to_dict(),
                    "l2_misses": int(prediction.l2_misses),
                    "per_array": {k: int(v)
                                  for k, v in prediction.per_array.items()},
                })
            return {"name": matrix.name, "method": "B",
                    "predictions": predictions}
        return recommend_from_predictions(
            machine=self.machine,
            num_threads=self.setup.num_threads,
            way_options=tuple(request.way_options),
            consider_isolate_x=request.consider_isolate_x,
            min_ways=request.min_ways,
            matrix_class=advisor_class(matrix, self.machine,
                                       self.setup.num_threads,
                                       request.way_options),
            nnz=matrix.nnz,
            streams=stream_misses(matrix, self.machine.line_size),
            per_array_fn=lambda policy: model.predict(policy).per_array,
            x_misses_fn=model.x_misses,
        ).to_dict()


def _memoize(materialize: Callable[[], CSRMatrix]) -> Callable[[], CSRMatrix]:
    cache: list[CSRMatrix] = []

    def cached() -> CSRMatrix:
        if not cache:
            cache.append(materialize())
        return cache[0]

    return cached


def tier2_apriori_bound(task: dict, machine: A64FX, setup) -> float:
    """Tier-2 bound of a canonical task from dims alone (event-loop cheap).

    The daemon uses this to decide whether a cached tier-2 result (stored
    under the plain request key by plain and ladder requests alike)
    satisfies a ladder request's SLO without any evaluation.  ``classify``
    tasks are closed-form exact: bound 0.
    """
    endpoint = task["endpoint"]
    if endpoint == "classify":
        return 0.0
    request = _Request.from_task(
        task, dims_from_task(task, machine), "",
        lambda: (_ for _ in ()).throw(RuntimeError("dims only")),
    )
    return Ladder(setup).apriori_bound(2, request)
