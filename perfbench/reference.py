"""Direct library calls: the reference answers and the "model" layer.

Every answer the daemons give is checked against the same computation
done here in-process through the public model classes, on the
benchmark's own copy of the input (not the one rebuilt from the wire).
The traced run times the same calls as the model layer.
"""

from __future__ import annotations

from functools import lru_cache

from repro.analysis.report import canonical_json
from repro.core.advisor import SectorAdvisor
from repro.core.method_b import MethodB
from repro.experiments.common import (
    ExperimentSetup,
    MatrixRecord,
    measure_matrix,
    record_fingerprint,
)
from repro.ladder import Ladder
from repro.ladder.tier0 import MatrixDims
from repro.matrices.collection import collection
from repro.service.protocol import ADVISE_WAY_OPTIONS
from repro.spmv.csr import CSRMatrix
from repro.spmv.sector_policy import SectorPolicy

from inputs import SCALE


@lru_cache(maxsize=32)
def named_matrix(collection_name: str, name: str) -> CSRMatrix:
    for spec in collection(collection_name):
        if spec.name == name:
            return spec.materialize()
    raise KeyError(name)


def op_matrix(op) -> CSRMatrix:
    return op.matrix if op.matrix is not None else named_matrix(op.collection, op.name)


def direct(endpoint: str, threads: int, matrix: CSRMatrix,
           accuracy: float | None = None, max_tier: int | None = None):
    """The library's answer to one request: a result dict, or for
    ``sweep`` the record fingerprint."""
    setup = ExperimentSetup(scale=SCALE, num_threads=threads)
    machine = setup.machine()
    if accuracy is not None or max_tier is not None:
        answer = Ladder(setup).answer(
            endpoint, MatrixDims.of(matrix), lambda: matrix, name=matrix.name,
            accuracy=accuracy, max_tier=3 if max_tier is None else max_tier,
            way_options=list(ADVISE_WAY_OPTIONS),
        )
        return answer.result
    if endpoint == "advise":
        return SectorAdvisor(machine, num_threads=threads).recommend(matrix).to_dict()
    if endpoint == "predict":
        model = MethodB(matrix, machine, num_threads=threads,
                        iterations=setup.iterations)
        predictions = []
        for ways in setup.l2_way_options:
            prediction = model.predict(SectorPolicy.from_dict({"l2_sector1_ways": ways}))
            predictions.append({
                "policy": prediction.policy.to_dict(),
                "l2_misses": int(prediction.l2_misses),
                "per_array": {k: int(v) for k, v in prediction.per_array.items()},
            })
        return {"name": matrix.name, "method": "B", "predictions": predictions}
    if endpoint == "sweep":
        return record_fingerprint(measure_matrix(matrix, setup))
    raise ValueError(f"no reference for {endpoint!r}")


def matches(expected, envelope: dict, endpoint: str) -> bool:
    """Byte identity of a daemon answer with the reference.

    Inline and delta matrices are named by the daemon after their content
    (``inline-<digest>``, ``delta-<digest>``); that one field is taken
    from the answer, everything else must match byte for byte.
    """
    result = envelope.get("result")
    if not isinstance(result, dict):
        return False
    if endpoint == "sweep":
        return record_fingerprint(MatrixRecord.from_dict(result)) == expected
    expected = dict(expected)
    name = result.get("name")
    if "name" in expected and isinstance(name, str) and name.startswith(("inline-", "delta-")):
        expected["name"] = name
    return canonical_json(expected) == canonical_json(result)


def check_job(job: tuple) -> object:
    """Process-pool entry: ``(endpoint, threads, matrix_or_name, accuracy,
    max_tier)`` -> the reference answer."""
    endpoint, threads, source, accuracy, max_tier = job
    matrix = source if isinstance(source, CSRMatrix) else named_matrix(*source)
    return direct(endpoint, threads, matrix, accuracy, max_tier)
