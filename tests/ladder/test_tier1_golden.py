"""Tier-1 (``SampledMethodB``) answers on the ``tiny`` collection, pinned.

``golden/tier1_tiny.json`` holds, per setup and matrix, the ``predict``
and ``advise`` wire results of a ladder capped at tier 1 and their
posterior error bounds.  Tier 1 samples the interleaved x-only trace, so
these answers pin the static schedule and the MCS merge of the threads'
traces as well as the sampled stack pass.  On the default scale-16
machine every ``tiny`` matrix keeps x in cache at 1 and 48 threads; the
scale-64 setup re-draws the collection against a smaller L2, where x
misses, and how often depends on the order the threads' references
merge in.

Regenerate with ``PYTHONPATH=src python tests/ladder/test_tier1_golden.py``
only when an answer is meant to change.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import ExperimentSetup
from repro.ladder import Ladder, MatrixDims
from repro.matrices.collection import collection
from repro.spmv.sector_policy import isolate_x_policy, listing1_policy, no_sector_cache

GOLDEN_PATH = Path(__file__).parent / "golden" / "tier1_tiny.json"
#: (machine scale, threads) of each pinned setup
SETUPS = ((16, 1), (16, 48), (64, 48))
POLICIES = [
    p.to_dict()
    for p in (no_sector_cache(), listing1_policy(2), listing1_policy(5),
              isolate_x_policy(5))
]
WAY_OPTIONS = [2, 5, 7]


def _key(scale: int, threads: int) -> str:
    return f"scale={scale} threads={threads}"


def _answers(scale: int, threads: int) -> dict:
    setup = ExperimentSetup(scale=scale, num_threads=threads, iterations=2)
    ladder = Ladder(setup)
    out = {}
    for spec in collection("tiny", machine=setup.machine()):
        matrix = spec.materialize()
        dims = MatrixDims.of(matrix)
        entry = {}
        for endpoint, kwargs in (("predict", {"policies": POLICIES}),
                                 ("advise", {"way_options": WAY_OPTIONS})):
            answer = ladder.answer(endpoint, dims, lambda: matrix,
                                   name=matrix.name, max_tier=1, **kwargs)
            assert answer.tier == 1
            entry[endpoint] = {"result": answer.result,
                               "error_bound": answer.error_bound}
        out[spec.name] = entry
    return out


@pytest.mark.parametrize("scale,threads", SETUPS)
def test_tier1_tiny_answers_match_the_golden(scale, threads):
    expected = json.loads(GOLDEN_PATH.read_text())[_key(scale, threads)]
    got = json.loads(json.dumps(_answers(scale, threads)))
    assert sorted(got) == sorted(expected)
    for name in expected:
        assert got[name] == expected[name], name


if __name__ == "__main__":
    blocks = []
    for scale, threads in SETUPS:
        rows = ",\n".join(
            f"  {json.dumps(name)}: {json.dumps(entry, sort_keys=True)}"
            for name, entry in sorted(_answers(scale, threads).items())
        )
        blocks.append(f" {json.dumps(_key(scale, threads))}: {{\n{rows}\n }}")
    GOLDEN_PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
