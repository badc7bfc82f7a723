"""Worker-side evaluation of delta tasks (matrix kind ``"delta"``).

A delta task is an ordinary ``classify``/``predict``/``advise`` task
whose matrix spec is ``{"kind": "delta", "base": <root spec>,
"batches": [<edit batch>, ...]}`` — the service derives it from a stored
base task plus the client's edit batch (see ``POST /delta`` in
:mod:`repro.service.app`).  This module decides *how* to price it:

incremental (the point of the subsystem)
    Patch the stored steady-state reuse distances through the last batch
    (:meth:`repro.delta.state.ReuseState.apply`), seed a
    :class:`~repro.core.method_b.MethodB` with the patched array, and
    hand it to :meth:`repro.ladder.Ladder.model_result` — the code that
    builds every tier-1/2 result from a model.  The seeded array is
    byte-identical to a fresh stack pass, so the wire result is
    byte-identical to full re-evaluation — only cheaper.

fallback (conservative, always correct)
    The ladder's tier 2 on the materialized chain, taken when the patch
    budget overflows (class-3 structures whose reuse windows span the
    trace), when the trace is interleaved (``num_threads > 1``), or when
    the model is non-periodic (``iterations < 2`` — except ``advise``,
    whose advisor always prices with the default periodic model).  The
    fallback *reason* travels back to the daemon for the
    ``repro_delta_fallback_total`` metric family.

``classify`` reads dims and pattern structure only: it materializes the
chain (validating every batch) and answers at the ladder's tier 0.

Reuse states live in a worker-local LRU keyed by a digest of the base's
canonical encoding, the edit batches and the line size.  The daemon
sends that encoding — the chain's root JSON, which its registry holds —
so the matrix name and both state keys hash it and no evaluation
encodes the base (the whole inline matrix); a caller without it passes
none and the base is encoded once here.  The pool's fork workers are
long-lived, so a step usually finds a state of its own chain in its
worker: its immediate prefix's, or an older ancestor's when another
worker priced the steps in between, which it patches forward through the
missing batches — ``"state": "warm"`` in the metadata.  A worker that
holds none of the chain's states builds the prefix pattern and patches
only its previous-occurrence array through the last batch, which prices
the budget; it captures the edited pattern with one full pass
(``"cold"``) only when the patch fits, so a budget fallback costs no
capture.  Each step caches one state, its own.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import replace

from ..analysis.report import canonical_json
from ..core.method_b import MethodB
from ..ladder.engine import Ladder, has_ladder_flags
from ..ladder.tier0 import dims_from_task
from ..reuse.fenwick import compute_prev
from ..spmv.csr import CSRMatrix
from .delta import MatrixDelta
from .state import (
    BudgetExceeded,
    ReuseState,
    full_reuse_state,
    patch_prev,
    x_lines,
)

#: Default patch budget (summed dirty-window elements) — overridable per
#: daemon with ``--delta-budget`` (rides in the task as ``delta_budget``,
#: excluded from the request key).
DEFAULT_BUDGET = 65_536

_STATE_CAPACITY = 8
_state_cache: OrderedDict[str, tuple[CSRMatrix, ReuseState]] = OrderedDict()


def _state_keys(spec: dict, base_json: str, line_size: int) -> tuple[str, ...]:
    """The state-cache keys of a delta spec's chain, newest first: the
    spec's own, its prefix's (every batch but the last), and so on down
    to the base's.  Each digests the base's encoding ``base_json``, the
    line size and the batches so far, each batch encoded once."""
    base_digest = hashlib.sha256(base_json.encode()).hexdigest()
    digest = hashlib.sha256(f"{base_digest}|{int(line_size)}".encode())
    keys = [digest.hexdigest()[:32]]
    for batch in spec["batches"]:
        digest.update(b"|" + canonical_json(batch).encode())
        keys.append(digest.hexdigest()[:32])
    return tuple(reversed(keys))


def _cache_put(key: str, matrix: CSRMatrix, state: ReuseState) -> None:
    _state_cache[key] = (matrix, state)
    _state_cache.move_to_end(key)
    while len(_state_cache) > _STATE_CAPACITY:
        _state_cache.popitem(last=False)


def chain_edits(spec: dict) -> int:
    """Total edits accumulated across the chain's batches."""
    return sum(
        len(batch.get("inserts", ())) + len(batch.get("deletes", ()))
        for batch in spec["batches"]
    )


def chain_drift(spec: dict, base_nnz: int) -> float:
    """Accumulated edit fraction: edits over the base nonzero count."""
    return chain_edits(spec) / max(base_nnz, 1)


def _patched_state(
    task: dict, name: str, base_json: str, line_size: int, budget: int
) -> tuple[CSRMatrix, ReuseState, str]:
    """The edited pattern + distances, from the newest state this worker holds.

    ``base_json`` is the canonical encoding of the chain's base, from
    which the state-cache keys derive.  The walk takes the step's own
    state, else its prefix's, and so on down the chain, at most
    ``_STATE_CAPACITY`` batches back, and patches the newest held state
    forward through the batches after it: ``source`` ``"warm"``.

    Without a held state, or when a batch before the last overflows the
    budget, the prefix pattern is built (from what the walk reached, else
    from the base) and only its ``prev`` is patched through the last
    batch, which prices the budget without a steady-state pass.  The
    edited pattern is captured with one full pass only when that patch
    fits: ``source`` ``"cold"``.  Only the step's own state is cached.

    Raises :class:`BudgetExceeded` when the last batch's patch outgrows
    ``budget`` — the caller falls back to full re-evaluation of the
    edited pattern, which the exception carries as ``matrix`` so that
    the fallback does not rebuild the chain.
    """
    from ..service.protocol import matrix_from_task, matrix_name

    spec = task["matrix"]
    batches = spec["batches"]
    keys = _state_keys(spec, base_json, line_size)
    back = next((k for k, key in enumerate(keys[:_STATE_CAPACITY + 1])
                 if key in _state_cache), None)
    if back is None:
        base = {"matrix": spec["base"], "setup": task["setup"]}
        matrix = matrix_from_task(base, matrix_name(base, base_json))
        state, back = None, len(batches)
    else:
        _state_cache.move_to_end(keys[back])
        matrix, state = _state_cache[keys[back]]
        if back == 0:
            return matrix, state, "warm"

    for batch in batches[len(batches) - back:-1]:
        application = MatrixDelta.from_dict(batch).apply(matrix)
        matrix = application.matrix
        if state is not None:
            try:
                state = state.apply(application, budget)
            except BudgetExceeded:
                state = None  # capture cold from the pattern reached
    application = MatrixDelta.from_dict(batches[-1]).apply(matrix)
    edited = replace(application.matrix, name=name)
    try:
        if state is not None:
            state, source = state.apply(application, budget), "warm"
        else:
            prev = compute_prev(x_lines(matrix, line_size))
            work = patch_prev(prev, line_size, application).work
            if work > budget:
                raise BudgetExceeded(work, budget)
            state, source = full_reuse_state(edited, line_size), "cold"
    except BudgetExceeded as exc:
        exc.matrix = edited
        raise
    _cache_put(keys[0], edited, state)
    return edited, state, source


def seeded_model(matrix: CSRMatrix, machine, state: ReuseState,
                 iterations: int = 2) -> MethodB:
    """A Method B whose stack pass is replaced by the patched distances.

    ``_x_rd`` / ``_x_rd_l1`` are ``cached_property`` slots; pre-filling
    the instance dict makes every later profile/miss query read the
    patched array, and with one thread the CMG and per-thread groupings
    are identical, so both levels share it.
    """
    model = MethodB(matrix, machine, num_threads=1, iterations=iterations)
    model.__dict__["_x_rd"] = state.rd
    model.__dict__["_x_rd_l1"] = state.rd
    return model


def evaluate_delta_task(task: dict, base_json: str | None = None,
                        ) -> tuple[dict, dict | None, dict]:
    """Price one delta task; returns ``(result, fidelity, meta)``.

    ``meta`` is the daemon-facing delta metadata (``path``/``reason``/
    ``state``/``drift``/...) that rides the worker payload *outside* the
    result — keeping the result byte-identical to full re-evaluation.
    ``fidelity`` is non-None only on the drift-gated ladder path
    (``accuracy``/``max_tier`` flags), handled in
    :mod:`repro.delta.ladder`.  ``base_json`` is ``canonical_json`` of
    the chain's base (the task's root JSON) when the caller already
    holds it.
    """
    from ..service.protocol import matrix_from_task, matrix_name, setup_from_task

    if has_ladder_flags(task):
        from .ladder import answer_delta_task

        return answer_delta_task(task, base_json)

    setup = setup_from_task(task)
    ladder = Ladder(setup)
    machine = ladder.machine
    endpoint = task["endpoint"]
    spec = task["matrix"]
    base_dims = dims_from_task(
        {"matrix": spec["base"], "setup": task["setup"]}, machine
    )
    meta = {
        "chain_length": len(spec["batches"]),
        "edits": chain_edits(spec),
        "drift": chain_drift(spec, base_dims.nnz),
    }
    if base_json is None:
        base_json = canonical_json(spec["base"])
    name = matrix_name(task, base_json)
    edited = None  # the edited pattern, once built

    if endpoint == "classify":
        # the taxonomy reads dims and pattern structure, never the stack
        # pass — applying the chain is the whole cost
        path, reason = "incremental", "structural"
    elif setup.num_threads != 1:
        path, reason = "fallback", "threads"
    elif endpoint == "predict" and setup.iterations < 2:
        path, reason = "fallback", "iterations"
    else:
        budget = int(task.get("delta_budget", DEFAULT_BUDGET))
        try:
            matrix, state, source = _patched_state(
                task, name, base_json, machine.line_size, budget
            )
        except BudgetExceeded as exc:
            meta.update(work=exc.work, budget=exc.budget)
            path, reason = "fallback", "budget"
            edited = exc.matrix
        else:
            iterations = setup.iterations if endpoint == "predict" else 2
            model = seeded_model(matrix, machine, state, iterations=iterations)
            meta.update(path="incremental", state=source)
            return ladder.model_result(task, model), None, meta
    meta.update(path=path, reason=reason)
    answer = ladder.answer_task(
        task, name,
        lambda: edited if edited is not None else matrix_from_task(task, name))
    return answer.result, None, meta
