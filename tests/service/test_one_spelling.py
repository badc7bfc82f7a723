"""One pattern, one answer: how an inline matrix is spelled never shows.

A pattern is sent as CSR, as COO in row-major order, as shuffled COO and
as COO with every entry four times, through three routes:

* fresh: a daemon with no cache tier evaluates every request;
* memory-served: a daemon whose memory tier holds the pattern's answer;
* disk-served: a daemon with a zero-byte memory budget, reading the
  memory-served daemon's cache directory.

Each route runs plain and at ``max_tier: 2``.  Every spelling gets one
key and one matrix name, every route the same result bytes, and on each
route every spelling the same ``fidelity`` bytes (without
``cost_seconds``), whose bound every route shares.  A served answer's
``fidelity`` reads its bound from the task's dims, so a duplicated COO
entry counted twice there would move the class, and the bound, of a
pattern near a class boundary.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.report import canonical_json
from repro.matrices import random_uniform
from repro.service import ServiceClient, ServiceConfig, ServiceThread, matrix_payload
from repro.service.protocol import matrix_name, normalize_request

SPELLINGS = ("csr", "coo", "shuffled", "duplicated")
FLAGS = ({"max_tier": 2}, {})


@pytest.fixture(scope="module")
def routes(tmp_path_factory):
    """route -> client of the daemon that answers on that route."""
    cache_dir = str(tmp_path_factory.mktemp("one_spelling"))
    configs = {
        "fresh": ServiceConfig(jobs=1, cache_dir=None, memory_max_bytes=0),
        "memory": ServiceConfig(jobs=1, cache_dir=cache_dir),
        "disk": ServiceConfig(jobs=1, cache_dir=cache_dir, memory_max_bytes=0),
    }
    threads = {route: ServiceThread(config) for route, config in configs.items()}
    try:
        clients = {}
        for route, thread in threads.items():
            host, port = thread.start()
            clients[route] = ServiceClient(host, port, timeout=120.0)
        yield clients
    finally:
        for thread in threads.values():
            thread.stop()


def spellings(matrix, seed: int) -> dict:
    """The four spellings of ``matrix``'s pattern."""
    rows = np.repeat(np.arange(matrix.num_rows), np.diff(matrix.rowptr))
    cols = matrix.colidx
    order = np.random.default_rng(seed).permutation(rows.size)

    def coo(r, c):
        return {"coo": {"num_rows": matrix.num_rows, "num_cols": matrix.num_cols,
                        "rows": r.tolist(), "cols": c.tolist()}}

    return {
        "csr": matrix_payload(matrix),
        "coo": coo(rows, cols),
        "shuffled": coo(rows[order], cols[order]),
        "duplicated": coo(np.tile(rows[order], 4), np.tile(cols[order], 4)),
    }


def _fidelity(envelope: dict) -> str | None:
    fidelity = envelope.get("fidelity")
    if fidelity is None:
        return None
    return canonical_json({k: v for k, v in fidelity.items()
                           if k != "cost_seconds"})


@settings(max_examples=8, deadline=None)
@given(n=st.integers(100, 800), per_row=st.integers(2, 6),
       seed=st.integers(0, 2**16),
       endpoint=st.sampled_from(["classify", "predict", "advise"]),
       threads=st.sampled_from([1, 4]), scale=st.sampled_from([16, 128]))
# 4x duplication would move this pattern from class 1 to class 3 at scale 128
@example(n=600, per_row=5, seed=2, endpoint="advise", threads=1, scale=128)
def test_every_spelling_and_route_gives_one_answer(routes, n, per_row, seed,
                                                   endpoint, threads, scale):
    matrix = random_uniform(n, per_row, seed=seed)
    setup = {"num_threads": threads, "scale": scale}
    bodies = spellings(matrix, seed)
    # the memory-served daemon stores every spelling's answer (one
    # evaluation, when they share a key)
    for body in bodies.values():
        routes["memory"].request("POST", f"/{endpoint}", {
            "matrix": body, "setup": setup})
    for flags in FLAGS:
        answers = {
            (route, spelling): routes[route].request("POST", f"/{endpoint}", {
                "matrix": body, "setup": setup, **flags})
            for spelling, body in bodies.items() for route in routes
        }
        for route, cached in (("fresh", None), ("memory", "memory"),
                              ("disk", "disk")):
            fidelity = {_fidelity(answers[route, s]) for s in SPELLINGS}
            assert len(fidelity) == 1, (route, flags, fidelity)
            assert (None in fidelity) == (not flags)
            assert {answers[route, s]["cached"] for s in SPELLINGS} == {cached}
        if flags:
            # a served answer's bound is the fresh answer's
            assert len({a["fidelity"]["error_bound"]
                        for a in answers.values()}) == 1
        assert len({a["key"] for a in answers.values()}) == 1
        assert len({canonical_json(a["result"]) for a in answers.values()}) == 1
    # classify and predict results carry the name; advise's does not
    assert len({matrix_name(normalize_request(endpoint, {"matrix": body}))
                for body in bodies.values()}) == 1
