"""Tier-0 and tier-3 answers on the ``tiny`` collection, pinned.

``golden/tier03_tiny.json`` holds, per thread count and matrix, the
``classify``, ``predict`` and ``advise`` wire results of three routes
over the same canonical task:

* ``tier0``: the ladder capped at tier 0 (``max_tier: 0``);
* ``tier3``: the ladder forced to the simulator
  (``accuracy: 1e-9, max_tier: 3``);
* ``degraded``: :func:`repro.ladder.tier0.answer_task`, the daemon's
  degraded path, which reads dims from the task and builds no matrix.

Besides the ``tiny`` matrices (class 1 or 2 on the scale-16 machine),
an inline ``random_uniform(20000, 8, seed=3)`` is class 3a at one
thread, so its advise answers price the isolate-x candidates on the
second simulator.

Regenerate with ``PYTHONPATH=src python tests/ladder/test_tier03_golden.py``
only when an answer is meant to change.
"""

import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.experiments import ExperimentSetup
from repro.ladder import Ladder
from repro.ladder.tier0 import answer_task
from repro.matrices.collection import collection
from repro.matrices.generators import random_uniform
from repro.service.protocol import matrix_from_task, matrix_name, normalize_request
from repro.spmv.sector_policy import isolate_x_policy, listing1_policy, no_sector_cache

GOLDEN_PATH = Path(__file__).parent / "golden" / "tier03_tiny.json"
SCALE = 16
THREADS = (1, 48)
POLICIES = [
    p.to_dict()
    for p in (no_sector_cache(), listing1_policy(2), listing1_policy(5),
              isolate_x_policy(5))
]
#: ``advise`` keeps the service's default way options (2..6), so a
#: class-3 matrix prices seven candidates
EXTRAS = {"classify": {"way_options": [2, 5, 7]},
          "predict": {"policies": POLICIES},
          "advise": {}}
ROUTES = {"tier0": {"max_tier": 0},
          "tier3": {"accuracy": 1e-9, "max_tier": 3}}


@lru_cache(maxsize=1)
def _class3a_matrix():
    return random_uniform(20000, 8, seed=3)


def _matrices(threads: int) -> dict:
    """Matrix payloads by name: the ``tiny`` specs and one inline class 3a."""
    setup = ExperimentSetup(scale=SCALE, num_threads=threads)
    out = {spec.name: {"name": spec.name, "collection": "tiny"}
           for spec in collection("tiny", machine=setup.machine())}
    matrix = _class3a_matrix()
    out["random_uniform_class3a"] = {"csr": {
        "num_rows": matrix.num_rows, "num_cols": matrix.num_cols,
        "rowptr": matrix.rowptr.tolist(), "colidx": matrix.colidx.tolist(),
        "values": matrix.values.tolist(),
    }}
    return out


def _answers(threads: int) -> dict:
    setup = ExperimentSetup(scale=SCALE, num_threads=threads)
    machine = setup.machine()
    ladder = Ladder(setup)
    out = {}
    for label, payload in _matrices(threads).items():
        entry = {}
        for endpoint, extra in EXTRAS.items():
            base = {"matrix": payload,
                    "setup": {"scale": SCALE, "num_threads": threads},
                    **extra}
            task = normalize_request(endpoint, base)
            name = matrix_name(task)
            routes = {"degraded": answer_task(task, machine, name)}
            for route, flags in ROUTES.items():
                flagged = normalize_request(endpoint, {**base, **flags})
                answer = ladder.answer_task(
                    flagged, name,
                    lambda t=flagged: matrix_from_task(t, name))
                routes[route] = {"result": answer.result,
                                 "tier": answer.tier,
                                 "error_bound": answer.error_bound,
                                 "tiers_tried": list(answer.tiers_tried)}
            entry[endpoint] = routes
        out[label] = entry
    return out


def _key(threads: int) -> str:
    return f"scale={SCALE} threads={threads}"


@pytest.mark.parametrize("threads", THREADS)
def test_tier0_and_tier3_answers_match_the_golden(threads):
    expected = json.loads(GOLDEN_PATH.read_text())[_key(threads)]
    got = json.loads(json.dumps(_answers(threads)))
    assert sorted(got) == sorted(expected)
    for name in expected:
        assert got[name] == expected[name], name


def test_the_class3a_matrix_prices_isolate_x_on_the_simulator():
    expected = json.loads(GOLDEN_PATH.read_text())[_key(1)]
    advise = expected["random_uniform_class3a"]["advise"]
    result = advise["tier3"]["result"]
    assert advise["tier3"]["tier"] == 3
    assert result["matrix_class"] == "3a"
    isolated = [c for c in result["candidates"]
                if "rowptr" in c["policy"]["sector1_arrays"]]
    assert len(result["candidates"]) == 7 and len(isolated) == 3


if __name__ == "__main__":
    blocks = []
    for threads in THREADS:
        rows = ",\n".join(
            f"  {json.dumps(name)}: {json.dumps(entry, sort_keys=True)}"
            for name, entry in sorted(_answers(threads).items())
        )
        blocks.append(f" {json.dumps(_key(threads))}: {{\n{rows}\n }}")
    GOLDEN_PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
