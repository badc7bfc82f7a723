"""The integer fields of ``tiny`` sweep records, pinned to stored values.

``golden/tiny_sweep_fields.json`` holds, per setup and matrix, the
simulated events (``measured``, as the SHA-256 of its canonical JSON),
the Method A and B miss counts at L2 and L1 and the paper classes, as
computed before the simulator and Method A passes carried window floors.
Floors, radix-ordered sorts and the CSR assembly order may make a sweep
cheaper; none of them may change one of these integers.
"""

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.experiments.common import ExperimentSetup, measure_matrix
from repro.matrices.collection import collection

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "tiny_sweep_fields.json").read_text()
)
FIELDS = ("classes", "model_a", "model_a_l1", "model_b", "model_b_l1")


def _fields(record) -> dict:
    payload = asdict(record)
    out = {name: payload[name] for name in FIELDS}
    measured = json.dumps(payload["measured"], sort_keys=True, separators=(",", ":"))
    out["measured_sha256"] = hashlib.sha256(measured.encode()).hexdigest()
    return out


@pytest.mark.parametrize("iterations", [1, 2])
@pytest.mark.parametrize("threads", [1, 48])
def test_tiny_sweep_fields_match_the_golden(threads, iterations):
    expected = GOLDEN[f"threads={threads} iterations={iterations}"]
    setup = ExperimentSetup(num_threads=threads, iterations=iterations)
    specs = collection("tiny", machine=setup.machine())
    assert sorted(spec.name for spec in specs) == sorted(expected)
    for spec in specs:
        got = _fields(measure_matrix(spec.materialize(), setup))
        assert got == expected[spec.name], spec.name
