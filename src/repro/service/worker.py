"""Pool-worker body of the advisor service.

:func:`evaluate` is the only function the daemon submits to the process
pool.  It receives a canonical task (see :mod:`repro.service.protocol`)
and the task's root JSON, runs the requested model, and returns a
plain-JSON payload:
``{"result": ...}`` on success or ``{"error": ...}`` on failure.
Exceptions are caught *inside* the worker — the same fault isolation the
sweep engine uses — so a pathological matrix produces a structured error
response instead of a dead worker.

There is one answer path per kind of task: classify/predict/advise go
through :meth:`repro.ladder.Ladder.answer_task` (a plain request is its
tier-2 answer, byte-identical to direct :class:`~repro.core.MethodB` /
:class:`~repro.core.SectorAdvisor` calls), delta chains through
:func:`repro.delta.engine.evaluate_delta_task`, ``optimize`` through the
reordering search and ``sweep`` through the experiment measurement.

The root JSON (``canonical_json`` of
:func:`~repro.service.protocol.root_spec`) is the daemon's own encoding
of the matrix, sent along so that naming the matrix and keying a delta
chain's reuse states hash it instead of encoding the matrix again.  A
caller without it (a replay, a test) passes none and the worker encodes
the matrix itself, to the same bytes.
"""

from __future__ import annotations

import contextlib
import time
import traceback

from ..experiments.common import measure_matrix
from ..ladder.engine import Ladder, has_ladder_flags
from ..obs import events as obs_events
from ..obs.context import new_span_id
from ..obs.tracer import Tracer, installed
from ..resilience import faults
from .protocol import matrix_from_task, matrix_name, setup_from_task


def evaluate(task: dict, root_json: str | None = None) -> dict:
    """Run one canonical task; never raises (fault isolation).

    ``root_json`` is the task's root JSON when the caller holds it.

    Every evaluation runs under a worker-local tracer: per-phase self
    seconds always travel back for the daemon's ``/metrics`` aggregation,
    and the full span tree is included when the request set
    ``"trace": true`` (memory sampling is only paid in that case).

    A ``"faults"`` flag (already validated and gated by the daemon) is
    installed as the ambient fault plan for the duration of this one
    evaluation; the ``worker.evaluate`` site fires before dispatch, so a
    ``crash`` rule kills this worker process exactly the way a segfault
    would, a ``delay`` stalls into the parent's timeout, and an ``error``
    surfaces through the structured-error path.  Without the flag the
    ambient plan (if any — inherited across ``fork`` from a daemon
    started with ``--fault-plan``) is consulted instead.
    """
    started = time.perf_counter()
    plan = (faults.FaultPlan.from_dict(task["faults"])
            if task.get("faults") else None)
    # the daemon's hop context (if any): the evaluate span joins the
    # distributed trace with a *fresh* span id — a forked worker must
    # never reuse its parent's, or merged trees would alias spans
    ctx = task.get("trace_context") or {}
    span_attrs = {"endpoint": task.get("endpoint", "")}
    if ctx.get("trace_id"):
        span_attrs.update(
            trace_id=ctx["trace_id"],
            span_id=new_span_id(),
            parent_span_id=ctx.get("span_id"),
        )
    try:
        want_trace = bool(task.get("trace"))
        with faults.installed(plan) if plan else contextlib.nullcontext():
            faults.perform(faults.fire("worker.evaluate"))
            with Tracer(memory="rss" if want_trace else None) as tracer:
                with installed(tracer), tracer.span("evaluate", **span_attrs):
                    result, fidelity, delta_meta = _dispatch(task, root_json)
        obs_events.emit(
            "worker.evaluate", trace_id=ctx.get("trace_id"),
            endpoint=task.get("endpoint", ""), status="ok",
            seconds=time.perf_counter() - started,
        )
        tree = tracer.tree()
        payload = {
            "result": result,
            "elapsed_seconds": time.perf_counter() - started,
            "phase_seconds": tree.self_seconds_by_name(),
        }
        if fidelity is not None:
            payload["fidelity"] = fidelity
        if delta_meta is not None:
            payload["delta"] = delta_meta
        if want_trace:
            payload["trace"] = tree.to_dict()
        if plan is not None:
            payload["faults_fired"] = plan.fired_counts()
        return payload
    except Exception as exc:  # noqa: BLE001 - isolation is the point
        obs_events.emit(
            "worker.evaluate", trace_id=ctx.get("trace_id"),
            endpoint=task.get("endpoint", ""), status="error",
            error=type(exc).__name__,
            seconds=time.perf_counter() - started,
        )
        payload = {
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(),
                "elapsed_seconds": time.perf_counter() - started,
            }
        }
        if plan is not None:
            payload["faults_fired"] = plan.fired_counts()
        return payload


def _dispatch(task: dict, root_json: str | None = None,
              ) -> tuple[dict, dict | None, dict | None]:
    """Run one task; returns ``(result, fidelity, delta_meta)``.

    ``fidelity`` is set for ladder-flagged tasks (``accuracy``/
    ``max_tier``) and ``optimize``; ``delta_meta`` (incremental vs
    fallback) only for delta chains, whose result stays byte-identical
    to full re-evaluation of the edited pattern.
    """
    if task["matrix"]["kind"] == "delta":
        from ..delta.engine import evaluate_delta_task

        return evaluate_delta_task(task, root_json)
    endpoint = task["endpoint"]
    # hashed once: the ladder (or the search) and the matrix builder
    # share the name
    name = matrix_name(task, root_json)
    if endpoint == "optimize":
        # optimize's "accuracy" is a confirmation SLO consumed by the
        # search itself, not a request to answer the task on the ladder
        from ..optimize import optimize_task

        result = optimize_task(task, name)
        return result, result["fidelity"], None
    setup = setup_from_task(task)
    if endpoint == "sweep":
        return measure_matrix(matrix_from_task(task, name),
                              setup).to_dict(), None, None
    answer = Ladder(setup).answer_task(
        task, name, lambda: matrix_from_task(task, name)
    )
    return (answer.result,
            answer.fidelity() if has_ladder_flags(task) else None, None)
