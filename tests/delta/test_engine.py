"""Worker-side delta pricing: incremental vs fallback vs ladder paths.

Every test routes a derived delta task through
:func:`repro.delta.engine.evaluate_delta_task` exactly the way the pool
worker does, and checks the one invariant that matters: whatever path
priced it, the *result* (and a flagged step's fidelity) is the one a
full submission of the edited matrix gets — only the metadata
(path/reason/state/drift) differs.
"""

import numpy as np
import pytest

from repro.analysis.report import canonical_json
from repro.delta import engine
from repro.delta.delta import MatrixDelta
from repro.matrices.generators import banded, random_uniform
from repro.service.protocol import (
    derive_delta_task,
    normalize_delta,
    normalize_request,
    request_key,
)
from repro.service.worker import _dispatch

MATRIX = banded(600, 6, 4, seed=7)
SETUP = {"num_threads": 1, "scale": 16}


@pytest.fixture(autouse=True)
def _cold_worker():
    """Each test starts from a cold worker-local reuse-state cache."""
    engine._state_cache.clear()
    yield
    engine._state_cache.clear()


def csr_payload(matrix) -> dict:
    return {"csr": {
        "num_rows": matrix.num_rows,
        "num_cols": matrix.num_cols,
        "rowptr": matrix.rowptr.tolist(),
        "colidx": matrix.colidx.tolist(),
        "values": matrix.values.tolist(),
    }}


def band_edits(matrix, rows):
    """Band-local edits (short dirty windows: stays inside the budget)."""
    inserts, deletes = [], []
    for r in rows:
        cols = matrix.colidx[matrix.rowptr[r]:matrix.rowptr[r + 1]].tolist()
        colset = set(cols)
        ins = next(c for base in cols for c in (base + 1, base - 1)
                   if 0 <= c < matrix.num_cols and c not in colset)
        inserts.append([r, int(ins), 1.0])
        deletes.append([r, int(cols[0])])
    return {"inserts": inserts, "deletes": deletes}


def delta_task(endpoint, batch, *, matrix=MATRIX, setup=SETUP, budget=None,
               flags=None, request=None):
    """Derive the canonical delta task the daemon would submit."""
    stored = normalize_request(endpoint,
                               {"matrix": csr_payload(matrix),
                                "setup": setup, **(request or {})})
    body = {"base": request_key(stored), "delta": batch, **(flags or {})}
    return derive_delta_task(stored, normalize_delta(body),
                             engine.DEFAULT_BUDGET if budget is None
                             else budget)


def full_result(endpoint, edited, *, setup=SETUP, request=None):
    """The from-scratch answer on the edited pattern (the oracle)."""
    task = normalize_request(endpoint, {"matrix": csr_payload(edited),
                                        "setup": setup, **(request or {})})
    result, fidelity, meta = _dispatch(task)
    assert fidelity is None and meta is None
    return result


def edited_matrix(batch, matrix=MATRIX):
    return MatrixDelta.from_dict(batch).apply(matrix).matrix


def test_incremental_advise_is_byte_identical_to_full_path():
    batch = band_edits(MATRIX, [5, 200, 400])
    result, fidelity, meta = engine.evaluate_delta_task(
        delta_task("advise", batch))
    assert fidelity is None
    assert meta["path"] == "incremental"
    assert meta["state"] == "cold"  # fresh worker: the base pays one pass
    assert meta["chain_length"] == 1 and meta["edits"] == 6
    assert meta["drift"] == pytest.approx(6 / MATRIX.nnz)
    oracle = full_result("advise", edited_matrix(batch))
    assert {k: v for k, v in result.items() if k != "name"} == \
        {k: v for k, v in oracle.items() if k != "name"}


def test_incremental_predict_matches_full_path_per_policy():
    batch = band_edits(MATRIX, [50, 300])
    request = {"policies": [{"l2_sector1_ways": w} for w in (2, 6, 10)]}
    result, _, meta = engine.evaluate_delta_task(
        delta_task("predict", batch, request=request))
    assert meta["path"] == "incremental"
    oracle = full_result("predict", edited_matrix(batch), request=request)
    assert result["predictions"] == oracle["predictions"]


def test_repeat_and_chain_hit_the_warm_worker_state():
    batch1 = band_edits(MATRIX, [10, 100])
    _, _, first = engine.evaluate_delta_task(delta_task("advise", batch1))
    assert first["state"] == "cold"
    # the same chain again: the full patched state is already cached
    _, _, again = engine.evaluate_delta_task(delta_task("advise", batch1))
    assert again["state"] == "warm"
    # one more batch on top: the length-1 prefix state is the warm hit
    once = edited_matrix(batch1)
    batch2 = band_edits(once, [250, 500])
    stored = normalize_request("advise", {"matrix": csr_payload(MATRIX),
                                          "setup": SETUP})
    chained = derive_delta_task(
        stored, normalize_delta({"base": request_key(stored),
                                 "delta": batch1}), engine.DEFAULT_BUDGET)
    chained = derive_delta_task(
        chained, normalize_delta({"base": request_key(chained),
                                  "delta": batch2}), engine.DEFAULT_BUDGET)
    result, _, meta = engine.evaluate_delta_task(chained)
    assert meta["chain_length"] == 2 and meta["state"] == "warm"
    oracle = full_result("advise", edited_matrix(batch2, once))
    assert {k: v for k, v in result.items() if k != "name"} == \
        {k: v for k, v in oracle.items() if k != "name"}


def test_classify_prices_structurally():
    batch = band_edits(MATRIX, [0, 599])
    result, fidelity, meta = engine.evaluate_delta_task(
        delta_task("classify", batch))
    assert fidelity is None
    assert meta["path"] == "incremental" and meta["reason"] == "structural"
    oracle = full_result("classify", edited_matrix(batch))
    assert result["classes"] == oracle["classes"]


def test_parallel_base_falls_back_with_reason_threads():
    batch = band_edits(MATRIX, [20])
    setup = {"num_threads": 8, "scale": 16}
    result, _, meta = engine.evaluate_delta_task(
        delta_task("advise", batch, setup=setup))
    assert meta["path"] == "fallback" and meta["reason"] == "threads"
    oracle = full_result("advise", edited_matrix(batch), setup=setup)
    assert {k: v for k, v in result.items() if k != "name"} == \
        {k: v for k, v in oracle.items() if k != "name"}


def test_non_periodic_predict_falls_back_with_reason_iterations():
    batch = band_edits(MATRIX, [20])
    setup = {"num_threads": 1, "scale": 16, "iterations": 1}
    result, _, meta = engine.evaluate_delta_task(
        delta_task("predict", batch, setup=setup))
    assert meta["path"] == "fallback" and meta["reason"] == "iterations"
    oracle = full_result("predict", edited_matrix(batch), setup=setup)
    assert result["predictions"] == oracle["predictions"]


def test_exhausted_budget_falls_back_and_reports_the_work():
    # a class-3 pattern: even a handful of edits dirties windows that
    # span the trace, so a tiny budget must overflow
    matrix = random_uniform(600, 5, seed=11)
    cols = matrix.colidx[matrix.rowptr[0]:matrix.rowptr[1]]
    absent = next(c for c in range(matrix.num_cols)
                  if c not in set(cols.tolist()))
    batch = {"inserts": [[0, absent, 1.0]],
             "deletes": [[0, int(cols[0])]]}
    result, _, meta = engine.evaluate_delta_task(
        delta_task("advise", batch, matrix=matrix, budget=1))
    assert meta["path"] == "fallback" and meta["reason"] == "budget"
    assert meta["work"] > meta["budget"] == 1
    oracle = full_result("advise", edited_matrix(batch, matrix))
    assert {k: v for k, v in result.items() if k != "name"} == \
        {k: v for k, v in oracle.items() if k != "name"}


def test_loose_slo_stays_on_tier0_without_patching():
    batch = band_edits(MATRIX, [30])
    result, fidelity, meta = engine.evaluate_delta_task(
        delta_task("advise", batch, flags={"accuracy": 10.0}))
    assert meta["path"] == "ladder"
    assert "reason" not in meta and "state" not in meta
    assert meta["drift"] > 0 and "drift" not in fidelity
    assert fidelity["tier"] == 0 and fidelity["slo_met"]
    assert not engine._state_cache  # tier 0 captures no state
    assert result["best"] and result["matrix_class"]


def test_tight_slo_escalates_onto_the_incremental_path():
    batch = band_edits(MATRIX, [30, 90])
    result, fidelity, meta = engine.evaluate_delta_task(
        delta_task("advise", batch, flags={"accuracy": 1e-9, "max_tier": 2}))
    assert meta["path"] == "incremental" and meta["state"] == "cold"
    assert fidelity["tier"] == 2
    # no cheaper tier's a-priori bound meets the SLO: tier 2 answers alone
    assert fidelity["tiers_tried"] == [2]
    assert "drift" not in fidelity
    oracle = full_result("advise", edited_matrix(batch))
    assert {k: v for k, v in result.items() if k != "name"} == \
        {k: v for k, v in oracle.items() if k != "name"}


FLAG_SETS = (
    {"max_tier": 0}, {"max_tier": 1}, {"max_tier": 2},
    {"accuracy": 10.0}, {"accuracy": 0.7}, {"accuracy": 0.3},
    {"accuracy": 1e-9, "max_tier": 3},
)


def without(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


@pytest.mark.parametrize("flags", FLAG_SETS, ids=canonical_json)
@pytest.mark.parametrize("endpoint", ["classify", "predict", "advise"])
def test_a_flagged_step_answers_as_the_full_submission(endpoint, flags):
    batch = band_edits(MATRIX, [30, 90, 400])
    request = ({"policies": [{"l2_sector1_ways": w} for w in (0, 3, 6)]}
               if endpoint == "predict" else {})
    result, fidelity, meta = engine.evaluate_delta_task(
        delta_task(endpoint, batch, flags=flags, request=request))
    full = normalize_request(endpoint, {
        "matrix": csr_payload(edited_matrix(batch)), "setup": SETUP,
        **request, **flags})
    oracle, oracle_fidelity, _ = _dispatch(full)
    assert without(result, "name") == without(oracle, "name")
    assert without(fidelity, "cost_seconds") == \
        without(oracle_fidelity, "cost_seconds")
    if endpoint == "classify":
        assert (meta["path"], meta["reason"]) == ("incremental", "structural")
    elif fidelity["tier"] == 2:
        assert meta["path"] == "incremental" and "reason" not in meta
    else:
        assert meta["path"] == "ladder" and "reason" not in meta


def chain_tasks(endpoint, batches, *, matrix=MATRIX, budget=None):
    """The derived task of every step of one chain, in order."""
    task = normalize_request(endpoint, {"matrix": csr_payload(matrix),
                                        "setup": SETUP})
    steps = []
    for batch in batches:
        task = derive_delta_task(
            task, normalize_delta({"base": request_key(task), "delta": batch}),
            engine.DEFAULT_BUDGET if budget is None else budget)
        steps.append(task)
    return steps


def band_chain(count, matrix=MATRIX):
    """``count`` band-local batches, each valid on the pattern the
    previous ones left, and the final pattern."""
    batches = []
    for step in range(count):
        batch = band_edits(matrix, [60 + 150 * step, 130 + 150 * step])
        batches.append(batch)
        matrix = edited_matrix(batch, matrix)
    return batches, matrix


@pytest.fixture
def stack_passes(monkeypatch):
    """Counts of the full captures and of every steady-state stack pass
    (the capture's and the ladder's tier 2) the engine runs."""
    from repro.core import method_b
    from repro.reuse import periodic

    counts = {"captures": 0, "passes": 0}
    capture, stack_pass = engine.full_reuse_state, \
        periodic.steady_state_reuse_distances

    def counted_capture(*args, **kwargs):
        counts["captures"] += 1
        return capture(*args, **kwargs)

    def counted_pass(*args, **kwargs):
        counts["passes"] += 1
        return stack_pass(*args, **kwargs)

    monkeypatch.setattr(engine, "full_reuse_state", counted_capture)
    monkeypatch.setattr(periodic, "steady_state_reuse_distances", counted_pass)
    monkeypatch.setattr(method_b, "steady_state_reuse_distances", counted_pass)
    return counts


def test_budget_overflow_on_a_cold_worker_runs_no_capture(stack_passes):
    # scattered class-3 edits: the patch overflows the default budget.
    # The work is decided from the prefix's prev alone, so the only
    # steady-state pass is tier 2's on the edited pattern.
    matrix = random_uniform(3000, 6, seed=5)
    rng = np.random.default_rng(3)
    inserts, deletes = [], []
    for r in sorted(rng.choice(matrix.num_rows, 8, replace=False).tolist()):
        cols = set(matrix.colidx[matrix.rowptr[r]:matrix.rowptr[r + 1]].tolist())
        c = next(c for c in rng.permutation(matrix.num_cols).tolist()
                 if c not in cols)
        inserts.append([r, c, 1.0])
        deletes.append([r, min(cols)])
    batch = {"inserts": inserts, "deletes": deletes}
    result, _, meta = engine.evaluate_delta_task(
        delta_task("advise", batch, matrix=matrix))
    assert meta["path"] == "fallback" and meta["reason"] == "budget"
    # the work a full capture followed by the patch measured
    assert (meta["work"], meta["budget"]) == (125_441, engine.DEFAULT_BUDGET)
    assert stack_passes == {"captures": 0, "passes": 1}
    assert not engine._state_cache  # an overflow caches nothing
    oracle = full_result("advise", edited_matrix(batch, matrix))
    assert {k: v for k, v in result.items() if k != "name"} == \
        {k: v for k, v in oracle.items() if k != "name"}


def test_a_held_ancestor_is_patched_forward(stack_passes):
    batches, final = band_chain(3)
    steps = chain_tasks("advise", batches)
    engine.evaluate_delta_task(steps[0])
    assert stack_passes["captures"] == 1 and len(engine._state_cache) == 1

    # the worker holds only the state of two steps back
    result, _, meta = engine.evaluate_delta_task(steps[2])
    assert meta["path"] == "incremental" and meta["state"] == "warm"
    assert stack_passes["captures"] == 1
    # one entry per step: no intermediate state is stored
    assert len(engine._state_cache) == 2
    oracle = full_result("advise", final)
    assert {k: v for k, v in result.items() if k != "name"} == \
        {k: v for k, v in oracle.items() if k != "name"}
    engine._state_cache.clear()
    cold, _, cold_meta = engine.evaluate_delta_task(steps[2])
    assert cold_meta["state"] == "cold"
    assert canonical_json(result) == canonical_json(cold)


def test_an_overflowing_middle_batch_falls_back_to_the_cold_path(
        stack_passes):
    # a far-off insert in a banded pattern opens one long reuse window:
    # over a budget the band-local batches outside that window stay under
    budget = 500
    first = band_edits(MATRIX, [40])
    once = edited_matrix(first)
    far = {"inserts": [[5, 590, 1.0]]}
    twice = edited_matrix(far, once)
    last = band_edits(twice, [597])
    steps = chain_tasks("advise", [first, far, last], budget=budget)

    _, _, middle = engine.evaluate_delta_task(steps[1])
    assert middle["reason"] == "budget" and middle["work"] > budget
    engine._state_cache.clear()

    engine.evaluate_delta_task(steps[0])
    captures = stack_passes["captures"]
    result, _, meta = engine.evaluate_delta_task(steps[2])
    assert meta["path"] == "incremental" and meta["state"] == "cold"
    assert stack_passes["captures"] == captures + 1
    oracle = full_result("advise", edited_matrix(last, twice))
    assert {k: v for k, v in result.items() if k != "name"} == \
        {k: v for k, v in oracle.items() if k != "name"}


@pytest.fixture
def applies(monkeypatch):
    """Counts of every batch apply and every reuse-state patch."""
    counts = {"batches": 0, "states": 0}
    apply_batch, apply_state = MatrixDelta.apply, engine.ReuseState.apply

    def counted_batch(self, matrix):
        counts["batches"] += 1
        return apply_batch(self, matrix)

    def counted_state(self, application, budget):
        counts["states"] += 1
        return apply_state(self, application, budget)

    monkeypatch.setattr(MatrixDelta, "apply", counted_batch)
    monkeypatch.setattr(engine.ReuseState, "apply", counted_state)
    return counts


def test_a_plain_step_applies_each_batch_after_the_held_state_once(applies):
    batches, _ = band_chain(3)
    steps = chain_tasks("advise", batches)

    def batches_applied(step):
        before = applies["batches"]
        engine.evaluate_delta_task(step)
        return applies["batches"] - before

    assert batches_applied(steps[0]) == 1  # cold: the base plus one batch
    assert batches_applied(steps[1]) == 1  # warm: the prefix's state
    assert batches_applied(steps[1]) == 0  # its own state
    engine._state_cache.clear()
    assert batches_applied(steps[2]) == 3  # cold: the whole chain


def test_a_tier0_step_patches_and_captures_nothing(applies, stack_passes):
    batches, _ = band_chain(2)
    plain = chain_tasks("advise", batches)
    engine.evaluate_delta_task(plain[0])  # the worker holds step 0's state
    counts = (dict(applies), dict(stack_passes))

    flagged = normalize_delta({"base": request_key(plain[0]),
                               "delta": batches[1], "max_tier": 0})
    task = derive_delta_task(plain[0], flagged, engine.DEFAULT_BUDGET)
    _, fidelity, meta = engine.evaluate_delta_task(task)
    assert fidelity["tier"] == 0 and meta["path"] == "ladder"
    assert applies["states"] == counts[0]["states"]
    assert applies["batches"] == counts[0]["batches"] + 1
    assert stack_passes == counts[1]
    assert len(engine._state_cache) == 1
