"""Every route to an answer gives the same result bytes.

Small generated inline matrices are asked classify/predict/advise at 1
and 4 threads through five routes:

* a direct :meth:`repro.ladder.Ladder.answer_task` call, no service code;
* the in-process daemon, plain request;
* a 3-replica gateway (:class:`repro.cluster.ClusterHarness`, thread mode);
* the daemon with ``max_tier: 2``;
* a ``/delta`` chain on the daemon whose two batches cancel (one inserts
  an entry, the next deletes it again).

A delta result names its derived matrix differently, so that route is
compared without the ``name`` field; every other byte must match.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.report import canonical_json
from repro.cluster import ClusterHarness
from repro.ladder import Ladder
from repro.service import matrix_payload
from repro.service.protocol import (
    matrix_from_task,
    matrix_name,
    normalize_request,
    setup_from_task,
)
from repro.spmv.csr import CSRMatrix


@pytest.fixture(scope="module")
def gateway(tmp_path_factory):
    with ClusterHarness(replicas=3, jobs=1,
                        cache_root=tmp_path_factory.mktemp("routes")) as harness:
        with harness.client(timeout=120.0) as client:
            yield client


@st.composite
def _case(draw):
    """A random uniform or banded pattern with up to 1500 nonzeros, plus
    one free cell for the cancelling delta."""
    rows, cols = draw(st.integers(1, 300)), draw(st.integers(2, 4000))
    nnz = draw(st.integers(1, min(1500, rows * cols - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        cells = rng.choice(rows * cols, size=nnz, replace=False)
    else:
        r = rng.integers(0, rows, nnz)
        c = np.clip(r * cols // rows + rng.integers(-8, 9, nnz), 0, cols - 1)
        cells = np.unique(r * cols + c)
    taken = set(cells.tolist())
    free = draw(st.integers(0, rows * cols - 1))
    while free in taken:
        free = (free + 1) % (rows * cols)
    dense = np.zeros((rows, cols))
    dense.flat[cells] = 1.0 + np.arange(cells.size) % 5
    return CSRMatrix.from_dense(dense, name="generated"), divmod(free, cols)


def _bytes(result: dict, drop_name: bool = False) -> str:
    if drop_name:
        result = {k: v for k, v in result.items() if k != "name"}
    return canonical_json(result)


@settings(max_examples=60, deadline=None)
@given(case=_case(),
       endpoint=st.sampled_from(["classify", "predict", "advise"]),
       threads=st.sampled_from([1, 4]),
       scale=st.sampled_from([16, 128]))
def test_every_route_gives_the_same_bytes(client, gateway, case, endpoint,
                                          threads, scale):
    matrix, (row, col) = case
    payload = {"matrix": matrix_payload(matrix),
               "setup": {"num_threads": threads, "scale": scale}}
    task = normalize_request(endpoint, payload)
    direct = Ladder(setup_from_task(task)).answer_task(
        task, matrix_name(task), lambda: matrix_from_task(task)).result
    expected = _bytes(direct)

    capped = client.request("POST", f"/{endpoint}", dict(payload, max_tier=2))
    assert _bytes(capped["result"]) == expected
    plain = client.request("POST", f"/{endpoint}", payload)
    assert _bytes(plain["result"]) == expected
    clustered = gateway.request("POST", f"/{endpoint}", payload)
    assert _bytes(clustered["result"]) == expected

    edited = client.delta(plain["key"], inserts=[[row, col, 2.5]])
    restored = client.delta(edited["key"], deletes=[[row, col]])
    assert _bytes(restored["result"], drop_name=True) == _bytes(direct, drop_name=True)
