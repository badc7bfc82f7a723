"""Degraded-mode analytic answers (the ladder's tier 0): exact where the
model is closed-form (classify), shape-faithful where it approximates
(predict/advise)."""

import pytest

from repro.core.advisor import Recommendation, SectorAdvisor
from repro.core.classification import classify
from repro.experiments.common import ExperimentSetup
from repro.matrices.collection import collection
from repro.ladder.tier0 import (
    MatrixDims,
    answer_task,
    closed_advise,
    closed_classify,
    closed_predict,
    dims_from_task,
)
from repro.service.protocol import matrix_name, normalize_request
from repro.service.worker import evaluate

SETUP = ExperimentSetup(scale=16, num_threads=8)
MACHINE = SETUP.machine()


def _spec(index=0):
    return collection("tiny", machine=MACHINE)[index]


def _task(endpoint, **extra):
    payload = {
        "matrix": {"name": _spec().name, "collection": "tiny"},
        "setup": {"scale": SETUP.scale, "num_threads": SETUP.num_threads},
    }
    payload.update(extra)
    return normalize_request(endpoint, payload)


def test_matrix_dims_byte_parity_with_csr():
    matrix = _spec().materialize()
    dims = MatrixDims.of(matrix)
    for attr in ("values_bytes", "colidx_bytes", "rowptr_bytes",
                 "x_bytes", "y_bytes", "matrix_bytes", "total_bytes"):
        assert getattr(dims, attr) == getattr(matrix, attr), attr


def test_matrix_dims_rejects_negative():
    with pytest.raises(ValueError):
        MatrixDims(-1, 4, 4)


def test_degraded_classify_is_exact():
    matrix = _spec().materialize()
    dims = MatrixDims.of(matrix)
    result = closed_classify(dims, MACHINE, 8, [2, 5], matrix.name)
    for ways in (2, 5):
        assert result["classes"][str(ways)] == classify(
            matrix, MACHINE, ways, result["num_cmgs"]
        ).value


def test_degraded_classify_matches_worker_result_byte_for_byte():
    task = _task("classify")
    full = evaluate(task)["result"]
    degraded = answer_task(task, MACHINE, matrix_name(task))
    assert degraded == full


def test_degraded_predict_shape_matches_wire_format():
    task = _task("predict")
    full = evaluate(task)["result"]
    degraded = answer_task(task, MACHINE, matrix_name(task))
    assert degraded["name"] == full["name"]
    assert degraded["method"] == "B"
    assert [p["policy"] for p in degraded["predictions"]] == [
        p["policy"] for p in full["predictions"]
    ]
    for prediction in degraded["predictions"]:
        assert prediction["l2_misses"] == sum(prediction["per_array"].values())
        assert set(prediction["per_array"]) <= {
            "values", "colidx", "rowptr", "y", "x"
        }


def test_degraded_advise_parses_as_recommendation_with_same_candidates():
    task = _task("advise")
    degraded = Recommendation.from_dict(answer_task(task, MACHINE,
                                                    matrix_name(task)))
    matrix = _spec().materialize()
    full = SectorAdvisor(MACHINE, num_threads=8).recommend(matrix)
    # the candidate *set* mirrors the real advisor exactly (the class,
    # which gates isolate-x candidates, is closed-form); only the
    # predicted numbers are approximations
    assert [c.policy for c in degraded.candidates] == [
        c.policy for c in full.candidates
    ]
    assert degraded.matrix_class == full.matrix_class
    assert degraded.best.policy in [c.policy for c in degraded.candidates]


def test_degraded_advise_requires_way_options():
    dims = MatrixDims(64, 64, 256)
    with pytest.raises(ValueError):
        closed_advise(dims, MACHINE, 8, [])


def test_answer_task_returns_none_for_sweep():
    assert answer_task(_task("sweep"), MACHINE, "x") is None


def test_dims_from_task_inline_and_named():
    csr_task = normalize_request("classify", {
        "matrix": {"csr": {"num_rows": 3, "num_cols": 4,
                           "rowptr": [0, 1, 2, 3], "colidx": [0, 1, 2]}},
    })
    assert dims_from_task(csr_task, MACHINE) == MatrixDims(3, 4, 3)
    coo_task = normalize_request("classify", {
        "matrix": {"coo": {"num_rows": 3, "num_cols": 3,
                           "rows": [0, 1], "cols": [1, 2]}},
    })
    assert dims_from_task(coo_task, MACHINE) == MatrixDims(3, 3, 2)
    named = _task("classify")
    dims = dims_from_task(named, MACHINE)
    assert dims == MatrixDims.of(_spec().materialize())
    # memoized: the second call must return the identical object
    assert dims_from_task(named, MACHINE) is dims


def test_dims_from_task_inline_csr_with_empty_rowptr():
    # inline indices ride as arrays: an empty one must read as nnz 0
    task = normalize_request("classify", {
        "matrix": {"csr": {"num_rows": 0, "num_cols": 0,
                           "rowptr": [], "colidx": []}},
    })
    assert dims_from_task(task, MACHINE) == MatrixDims(0, 0, 0)


def test_degraded_predict_empty_policy_list_is_empty_predictions():
    dims = MatrixDims(8, 8, 16)
    result = closed_predict(dims, MACHINE, 8, [], "tiny")
    assert result["predictions"] == []
