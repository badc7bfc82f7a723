"""A matrix's ``values`` never change an answer.

Every model reads the sparsity pattern alone, so one pattern spelled
four ways (no ``values``, all ones, random, all zeros) must get
byte-equal answers from every model endpoint and from a ``/delta`` step
whose insert carries the spelling's value.  Only the content-addressed
``name`` is masked, plus a sweep's and a search's volatile timing and
memory fields.
"""

import numpy as np
import pytest

from repro.analysis.report import canonical_json
from repro.experiments.common import VOLATILE_FIELDS
from repro.matrices import banded
from repro.optimize import OPTIMIZE_VOLATILE_FIELDS
from repro.service import matrix_payload

from .conftest import SETUP

MATRIX = banded(300, 6, 4, seed=11)
#: one free cell and one entry of the pattern, for the delta step
FREE = (0, 200)
TAKEN = (5, int(MATRIX.colidx[MATRIX.rowptr[5]]))


def _spellings() -> dict:
    bare = {k: v for k, v in matrix_payload(MATRIX)["csr"].items()
            if k != "values"}
    nnz = MATRIX.nnz
    return {
        "absent": (bare, None),
        "ones": (dict(bare, values=[1.0] * nnz), 1.0),
        "random": (dict(bare, values=np.random.default_rng(7).standard_normal(
            nnz).tolist()), -2.75),
        "zeros": (dict(bare, values=[0.0] * nnz), 0.0),
    }


SPELLINGS = _spellings()

#: endpoint, extra request fields, result fields masked beside ``name``
REQUESTS = {
    "classify": ("classify", {}, ()),
    "predict": ("predict", {"policies": [{"l2_sector1_ways": 3},
                                         {"l2_sector1_ways": 5}]}, ()),
    "advise": ("advise", {}, ()),
    "ladder-advise": ("advise", {"accuracy": 0.5}, ()),
    "sweep": ("sweep", {"setup": dict(SETUP, l2_way_options=[0, 5],
                                      l1_way_options=[0])}, VOLATILE_FIELDS),
    "optimize": ("optimize", {"strategies": ["identity", "rcm"]},
                 OPTIMIZE_VOLATILE_FIELDS),
}


def _answer(result: dict, masked=()) -> str:
    return canonical_json({k: v for k, v in result.items()
                           if k != "name" and k not in masked})


@pytest.mark.parametrize("request_id", sorted(REQUESTS))
def test_every_value_spelling_gets_the_same_answer(client, request_id):
    endpoint, extra, masked = REQUESTS[request_id]
    answers = set()
    for csr, _ in SPELLINGS.values():
        payload = {"setup": SETUP, **extra, "matrix": {"csr": csr}}
        envelope = client.request("POST", f"/{endpoint}", payload)
        answers.add(_answer(envelope["result"], masked))
    assert len(answers) == 1


def test_a_delta_step_gets_the_same_answer_for_every_value_spelling(client):
    answers = set()
    for csr, value in SPELLINGS.values():
        base = client.request("POST", "/advise",
                              {"setup": SETUP, "matrix": {"csr": csr}})
        insert = list(FREE) if value is None else [*FREE, value]
        envelope = client.request("POST", "/delta", {
            "base": base["key"],
            "delta": {"inserts": [insert], "deletes": [list(TAKEN)]}})
        answers.add(_answer(envelope["result"]))
    assert len(answers) == 1
