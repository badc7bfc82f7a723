"""Worker-side evaluation of delta tasks (matrix kind ``"delta"``).

A delta task is an ordinary ``classify``/``predict``/``advise`` task
whose matrix spec is ``{"kind": "delta", "base": <root spec>,
"batches": [<edit batch>, ...]}`` — the service derives it from a stored
base task plus the client's edit batch (see ``POST /delta`` in
:mod:`repro.service.app`).  Every delta task, plain or carrying
``accuracy``/``max_tier``, is one :meth:`repro.ladder.Ladder.answer_task`
call on the edited pattern, so a step answers exactly as a full
submission of that pattern would.  This module supplies the two things
that make it cheaper:

the edited pattern
    The ladder's ``materialize`` applies only the batches after the
    newest pattern this worker holds of the chain, validating each batch
    against the pattern it lands on.

incremental tier 2 (the point of the subsystem)
    When the ladder prices tier 2, the stored steady-state reuse
    distances are patched through the applied batches
    (:meth:`repro.delta.state.ReuseState.apply`) and seed a
    :class:`~repro.core.method_b.MethodB`.  The seeded array is
    byte-identical to a fresh stack pass, so the answer is too — only
    cheaper.  Tier 2 falls back to the ladder's own stack pass when the
    patch budget overflows (class-3 structures whose reuse windows span
    the trace), when the trace is interleaved (``num_threads > 1``), or
    when the model is non-periodic (``iterations < 2`` — except
    ``advise``, whose advisor always prices with the default periodic
    model).  The fallback *reason* travels back to the daemon for the
    ``repro_delta_fallback_total`` metric family.  An answer at tier 0, 1
    or 3 patches and captures nothing (path ``"ladder"``); ``classify``
    reads dims and pattern structure only (``"incremental"``,
    ``"structural"``).

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
from .delta import DeltaApplication, MatrixDelta
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


class _Chain:
    """One delta task's edited pattern, built from the newest state this
    worker holds, and its patched reuse state.

    :meth:`materialize` is the ladder's matrix: it walks the state-cache
    keys from the step's own, through its prefix's, down the chain at
    most ``_STATE_CAPACITY`` batches back, and applies the batches after
    the newest held pattern (from the base when none is held), keeping
    the :class:`~repro.delta.delta.DeltaApplication` objects a patch
    reads: every one after a held state, else the last.
    :meth:`patched_state` is tier 2's: it patches the held state through
    those applications, so no batch is applied twice.
    """

    def __init__(self, task: dict, name: str, base_json: str,
                 line_size: int) -> None:
        self.task = task
        self.name = name
        self.base_json = base_json
        self.line_size = line_size
        self.keys = _state_keys(task["matrix"], base_json, line_size)
        self.edited: CSRMatrix | None = None
        #: filled by :meth:`materialize`: the newest held state (if any),
        #: the pattern the last batch lands on, and the kept applications
        self.state: ReuseState | None = None
        self.prefix: CSRMatrix | None = None
        self.applications: list[DeltaApplication] = []

    def materialize(self) -> CSRMatrix:
        if self.edited is not None:
            return self.edited
        from ..service.protocol import matrix_from_task, matrix_name

        spec = self.task["matrix"]
        batches = spec["batches"]
        back = next((k for k, key in enumerate(self.keys[:_STATE_CAPACITY + 1])
                     if key in _state_cache), None)
        if back is None:
            base = {"matrix": spec["base"], "setup": self.task["setup"]}
            matrix = matrix_from_task(base, matrix_name(base, self.base_json))
            self.state, back = None, len(batches)
        else:
            _state_cache.move_to_end(self.keys[back])
            matrix, self.state = _state_cache[self.keys[back]]
        for batch in batches[len(batches) - back:]:
            self.prefix = matrix
            application = MatrixDelta.from_dict(batch).apply(matrix)
            if self.state is None:
                self.applications.clear()  # a cold capture reads the last only
            self.applications.append(application)
            matrix = application.matrix
        self.edited = (replace(matrix, name=self.name) if self.applications
                       else matrix)
        return self.edited

    def patched_state(self, budget: int) -> tuple[ReuseState, str]:
        """The edited pattern's reuse state and its ``source``.

        A held state is patched forward through the applied batches:
        ``"warm"``.  Without one, or when a batch before the last
        overflows the budget, only the prefix pattern's ``prev`` is
        patched through the last batch, which prices the budget without
        a steady-state pass; the edited pattern is captured with one full
        pass only when that patch fits: ``"cold"``.  Only the step's own
        state is cached.

        Raises :class:`BudgetExceeded` when the last batch's patch
        outgrows ``budget``: tier 2 then runs its ordinary stack pass on
        the materialized pattern.
        """
        edited = self.materialize()
        state = self.state
        if not self.applications:
            return state, "warm"
        *middle, last = self.applications
        for application in middle:
            if state is not None:
                try:
                    state = state.apply(application, budget)
                except BudgetExceeded:
                    state = None  # capture cold from the pattern reached
        if state is not None:
            state, source = state.apply(last, budget), "warm"
        else:
            prev = compute_prev(x_lines(self.prefix, self.line_size))
            work = patch_prev(prev, self.line_size, last).work
            if work > budget:
                raise BudgetExceeded(work, budget)
            state, source = full_reuse_state(edited, self.line_size), "cold"
        _cache_put(self.keys[0], edited, state)
        return state, source


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
    """Price one delta task on the ladder; returns ``(result, fidelity, meta)``.

    The answer is :meth:`Ladder.answer_task` on the edited pattern, so a
    step answers exactly as a full submission of that pattern with the
    same flags would: ``fidelity`` is non-None only for a task carrying
    ``accuracy``/``max_tier``.  ``meta`` is the daemon-facing delta
    metadata (``path``/``reason``/``state``/``drift``/...) that rides the
    worker payload *outside* the result.  ``base_json`` is
    ``canonical_json`` of the chain's base (the task's root JSON) when
    the caller already holds it.
    """
    from ..service.protocol import matrix_name, setup_from_task

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
    chain = _Chain(task, name, base_json, machine.line_size)

    def tier2() -> MethodB | None:
        """The patched-state Method B, or ``None`` (with the fallback
        reason in ``meta``) for the ladder's own stack pass."""
        if setup.num_threads != 1:
            meta.update(path="fallback", reason="threads")
            return None
        if endpoint == "predict" and setup.iterations < 2:
            meta.update(path="fallback", reason="iterations")
            return None
        try:
            state, source = chain.patched_state(
                int(task.get("delta_budget", DEFAULT_BUDGET)))
        except BudgetExceeded as exc:
            meta.update(work=exc.work, budget=exc.budget,
                        path="fallback", reason="budget")
            return None
        meta.update(path="incremental", state=source)
        iterations = setup.iterations if endpoint == "predict" else 2
        return seeded_model(chain.edited, machine, state, iterations=iterations)

    answer = ladder.answer_task(task, name, chain.materialize, tier2)
    if endpoint == "classify":
        # the taxonomy reads dims and pattern structure, never the stack
        # pass: applying the chain is the whole cost
        meta.update(path="incremental", reason="structural")
    else:
        meta.setdefault("path", "ladder")  # answered at tier 0, 1 or 3
    return (answer.result,
            answer.fidelity() if has_ladder_flags(task) else None, meta)
