"""Drift-gated fidelity-ladder answers for delta tasks.

The fidelity ladder's tier-0 closed forms read only ``(num_rows,
num_cols, nnz)`` — and a delta moves those by exactly its insert/delete
counts, so tier 0 prices an edited pattern *for free*.  What a delta
does cost is confidence: the calibrated tier-0 bound was measured
against unedited generator patterns, and every accumulated edit drags
the pattern away from that population.  This module charges that
honestly: the **accumulated drift** (edited-edge fraction of the base
pattern, :func:`repro.delta.engine.chain_drift`) is added to the tier-0
error bound, and a delta request only re-escalates past tier 0 when the
inflated bound no longer satisfies the request's ``accuracy`` SLO —
the ROADMAP's "a delta only needs re-escalation when the closed-form
tier's error bound is exceeded".

Escalation lands on the incremental exact path
(:func:`repro.delta.engine.evaluate_delta_task` without ladder flags),
which is tier-2 fidelity at patch cost.  Only a ``max_tier: 3`` request
whose SLO tier 2 cannot meet delegates to the generic
:class:`~repro.ladder.Ladder` (the simulator dwarfs any patch saving).

Fidelity metadata mirrors :meth:`repro.ladder.engine.LadderAnswer.fidelity`
key for key — the daemon's tier metrics, caching rules and audit
sampling consume it unchanged — plus a ``"drift"`` entry.
"""

from __future__ import annotations

import time

from ..core.classification import classify
from ..ladder.calibration import DEFAULT_CALIBRATION
from ..ladder.engine import Ladder, fidelity_payload, tier2_apriori_bound
from ..ladder.tier0 import answer_task as tier0_answer_task
from ..ladder.tier0 import dims_from_task


def _request_ways(task: dict) -> list[int]:
    """The sector-1 way splits a request prices (class depends on them)."""
    if task["endpoint"] == "predict":
        return sorted({int(p.get("l2_sector1_ways", 0)) for p in task["policies"]})
    return sorted(set(task["way_options"]))


def _num_policies(task: dict) -> int:
    if task["endpoint"] == "predict":
        return len(task["policies"])
    if task["endpoint"] == "advise":
        return len(task["way_options"]) + (1 if task["consider_isolate_x"] else 0)
    return 1


def tier0_drift_bound(task: dict, machine, setup) -> tuple[float, float]:
    """``(bound, drift)``: the drift-inflated tier-0 bound of a delta task.

    ``bound = tier2_apriori + worst tier-0 term over the priced way
    splits + drift`` — the same composition the ladder uses, with the
    accumulated edit fraction charged on top.
    """
    from .engine import chain_drift

    spec = task["matrix"]
    dims = dims_from_task(task, machine)
    base_dims = dims_from_task({"matrix": spec["base"], "setup": task["setup"]},
                               machine)
    drift = chain_drift(spec, base_dims.nnz)
    if task["endpoint"] == "classify":
        return 0.0, drift
    cmgs = machine.cmgs_used(task["setup"]["num_threads"])
    tier0_term = max(
        DEFAULT_CALIBRATION.tier0_term(classify(dims, machine, ways, cmgs).value,
                                       deep=False)
        for ways in _request_ways(task)
    )
    return tier2_apriori_bound(task, machine, setup) + tier0_term + drift, drift


def answer_delta_task(task: dict, base_json: str | None = None,
                      ) -> tuple[dict, dict, dict]:
    """Answer a delta task carrying ``accuracy``/``max_tier`` flags.

    Returns ``(result, fidelity, meta)`` for the worker payload.
    ``base_json`` is ``canonical_json`` of the chain's base (the task's
    root JSON) when the caller already holds it.
    """
    from ..analysis.report import canonical_json
    from ..service.protocol import matrix_from_task, matrix_name, setup_from_task
    from .engine import evaluate_delta_task

    started = time.perf_counter()
    setup = setup_from_task(task)
    machine = setup.machine()
    accuracy = task.get("accuracy")
    max_tier = task.get("max_tier")
    allowed = 3 if max_tier is None else max_tier
    # the base is the whole inline matrix: encoded at most once, for the
    # name here and for the engine's reuse-state keys on the escalation path
    if base_json is None:
        base_json = canonical_json(task["matrix"]["base"])
    name = matrix_name(task, base_json)
    ladder = Ladder(setup)
    dims = dims_from_task(task, machine)
    bound0, drift = tier0_drift_bound(task, machine, setup)
    meta = {"drift": drift, "tier0_bound": bound0}

    # mirror the ladder's target rule: without an SLO a request lands on
    # min(2, max_tier); with one, tier 0 serves while its inflated bound
    # holds and escalation needs headroom in max_tier
    escalate = (
        task["endpoint"] != "classify"
        and allowed >= 2
        and (accuracy is None or bound0 > accuracy)
    )
    if not escalate:
        result = tier0_answer_task(task, machine, name)
        bound = bound0
        fidelity = fidelity_payload(
            0, bound, accuracy, time.perf_counter() - started,
            ladder.predicted_cost(0, dims.nnz, _num_policies(task)),
            [0], [bound],
        ) | {"drift": drift}
        meta.update(path="tier0", reason="drift-within-bound")
        return result, fidelity, meta

    tier2_bound = tier2_apriori_bound(task, machine, setup)
    if allowed == 3 and accuracy is not None and tier2_bound > accuracy:
        # only the simulator can meet this SLO: the generic ladder runs
        # it on the materialized pattern (patch savings are noise there)
        answer = ladder.answer_task(task, name,
                                    lambda: matrix_from_task(task, name))
        fidelity = answer.fidelity()
        fidelity["drift"] = drift
        meta.update(path="ladder", reason="slo-needs-simulation")
        return answer.result, fidelity, meta

    stripped = {k: v for k, v in task.items()
                if k not in ("accuracy", "max_tier")}
    result, _, inner = evaluate_delta_task(stripped, base_json)
    meta.update(inner)
    fidelity = fidelity_payload(
        2, tier2_bound, accuracy, time.perf_counter() - started,
        ladder.predicted_cost(2, dims.nnz, _num_policies(task)),
        [0, 2] if accuracy is not None else [2],
        [bound0, tier2_bound] if accuracy is not None else [tier2_bound],
    ) | {"drift": drift}
    return result, fidelity, meta
