"""Tier 0: Method B's closed forms alone (dims-only, no trace, no pass).

The paper makes a microseconds-cheap answer available: all of Section 3.1
(the streaming-miss line counts and the class taxonomy) and the
Section-3.2.2 scaling factors ``s1``/``s2`` are closed forms over
``(num_rows, num_cols, nnz)``.  This tier evaluates the miss model with
the stack-pass term replaced by its analytic envelope:

* the streamed arrays contribute exactly their line counts when they
  cannot be retained (identically to the full Method B — the branching is
  literally :func:`repro.core.analytic.method_b_per_array`, shared with
  tiers 1 and 2);
* the ``x`` vector — whose misses Method B prices with a reuse-distance
  profile — is priced by the fit criterion instead: scaling distances by
  ``s`` against capacity ``C`` is the same comparison as unscaled
  distances against ``C/s``, so ``x`` is approximated as fully retained
  when ``s * x_lines <= C`` and fully streamed otherwise.

``classify`` answers are *exact* (the taxonomy is already closed-form);
``predict``/``advise`` answers are approximations whose error the ladder
bounds per request (see :mod:`repro.ladder.calibration`).

This module is also the engine of the service's degraded mode (the
daemon calls :func:`answer_task`), so degraded answers and ladder tier-0
answers are one implementation.  Everything works on
:class:`MatrixDims` — the three integers that determine every byte count
— so named collection matrices only pay one materialization ever (dims
are memoized) and inline matrices pay none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..core.advisor import Recommendation, advisor_class, recommend_from_predictions
from ..core.analytic import (
    method_b_per_array,
    method_b_scale_factors,
    stream_misses,
)
from ..core.classification import classify
from ..machine.a64fx import A64FX
from ..spmv.csr import ArrayFootprint
from ..spmv.sector_policy import SectorPolicy


@dataclass(frozen=True)
class MatrixDims(ArrayFootprint):
    """The three integers every closed-form term depends on.

    Its ``*_bytes`` properties are :class:`~repro.spmv.csr.CSRMatrix`'s
    (both are an :class:`~repro.spmv.csr.ArrayFootprint`), so
    :func:`repro.core.classification.classify` and
    :func:`repro.core.analytic.stream_misses` accept it unchanged.
    """

    num_rows: int
    num_cols: int
    nnz: int

    def __post_init__(self) -> None:
        if self.num_rows < 0 or self.num_cols < 0 or self.nnz < 0:
            raise ValueError("matrix dimensions must be non-negative")

    @classmethod
    def of(cls, matrix) -> "MatrixDims":
        """Dims of anything CSR-shaped (a :class:`CSRMatrix`, typically)."""
        return cls(int(matrix.num_rows), int(matrix.num_cols), int(matrix.nnz))


def x_lines(dims: MatrixDims, line: int) -> int:
    return -(-dims.x_bytes // line)


def x_fit_misses(
    dims: MatrixDims, scale: float, capacity_lines: int, line: int
) -> int:
    """Analytic surrogate of ``MethodB.x_misses``: all-or-nothing retention."""
    lines = x_lines(dims, line)
    return 0 if lines * scale <= capacity_lines else lines


def predict_policy(
    dims: MatrixDims, machine: A64FX, num_threads: int, policy: SectorPolicy
) -> dict[str, int]:
    """Per-array L2 miss counts of one policy, stack pass replaced by fit tests.

    The branching is the shared
    :func:`~repro.core.analytic.method_b_per_array`; only the injected x
    pricing differs from the full Method B (fit criterion instead of the
    reuse-profile query).
    """
    policy.validate(machine)
    streams = stream_misses(dims, machine.line_size)
    s1, s2 = method_b_scale_factors(dims)
    line = machine.line_size
    per_array = method_b_per_array(
        dims,
        machine,
        machine.cmgs_used(num_threads),
        streams,
        s1,
        s2,
        lambda scale, capacity: x_fit_misses(dims, scale, capacity, line),
        policy,
    )
    return {k: int(v) for k, v in per_array.items()}


def closed_classify(
    dims: MatrixDims, machine: A64FX, num_threads: int,
    way_options: list[int], name: str,
) -> dict:
    """The ``classify`` wire result — exact, the taxonomy is closed-form."""
    cmgs = machine.cmgs_used(num_threads)
    return {
        "name": name,
        "num_cmgs": cmgs,
        "classes": {
            str(ways): classify(dims, machine, ways, cmgs).value
            for ways in way_options
        },
    }


def closed_predict(
    dims: MatrixDims, machine: A64FX, num_threads: int,
    policies: list[dict], name: str,
) -> dict:
    """The ``predict`` wire result with analytic x terms (same shape)."""
    predictions = []
    for entry in policies:
        policy = SectorPolicy.from_dict(entry)
        per_array = predict_policy(dims, machine, num_threads, policy)
        predictions.append({
            "policy": policy.to_dict(),
            "l2_misses": sum(per_array.values()),
            "per_array": per_array,
        })
    return {"name": name, "method": "B", "predictions": predictions}


def closed_advise(
    dims: MatrixDims,
    machine: A64FX,
    num_threads: int,
    way_options: list[int],
    consider_isolate_x: bool = True,
    min_sector1_ways_with_prefetch: int = 4,
) -> Recommendation:
    """An approximate ``advise`` recommendation from closed forms alone.

    The candidate field, ranking rule and tie-break are the shared
    :func:`~repro.core.advisor.recommend_from_predictions`; only the miss
    counts feeding the performance model are the analytic surrogates.
    """
    line = machine.line_size
    return recommend_from_predictions(
        machine=machine,
        num_threads=num_threads,
        way_options=way_options,
        consider_isolate_x=consider_isolate_x,
        min_ways=min_sector1_ways_with_prefetch,
        matrix_class=advisor_class(dims, machine, num_threads, way_options),
        nnz=dims.nnz,
        streams=stream_misses(dims, line),
        per_array_fn=lambda policy: predict_policy(
            dims, machine, num_threads, policy
        ),
        x_misses_fn=lambda scale, capacity: x_fit_misses(
            dims, scale, capacity, line
        ),
    )


def closed_answer(endpoint: str, dims: MatrixDims, machine: A64FX,
                  num_threads: int, name: str, *, way_options=(), policies=(),
                  consider_isolate_x: bool = True, min_ways: int = 4) -> dict:
    """The tier-0 wire result of a classify, predict or advise request.

    The one endpoint switch over the closed forms, for the ladder's tier
    0 and the daemon's degraded path alike.
    """
    if endpoint == "classify":
        return closed_classify(dims, machine, num_threads, way_options, name)
    if endpoint == "predict":
        return closed_predict(dims, machine, num_threads, policies, name)
    if endpoint == "advise":
        return closed_advise(
            dims, machine, num_threads, way_options,
            consider_isolate_x=consider_isolate_x,
            min_sector1_ways_with_prefetch=min_ways,
        ).to_dict()
    raise ValueError(f"unknown endpoint {endpoint!r}")


# ----------------------------------------------------------------------
# canonical-task adapter (what the daemon and the ladder engine call)
# ----------------------------------------------------------------------

#: (collection, scale, name) -> MatrixDims; named specs are materialized
#: once per process to learn their dims, inline matrices never are.
_named_dims: dict[tuple[str, int, str], MatrixDims] = {}


def dims_from_task(task: dict, machine: A64FX,
                   materialize: Callable[[], object] | None = None,
                   ) -> MatrixDims:
    """Dims of a canonical task's matrix without a pool evaluation.

    The first touch of a named matrix builds it to learn its dims; a
    caller about to build it anyway passes its own (memoized)
    ``materialize`` so that one build serves both.
    """
    spec = task["matrix"]
    if spec["kind"] == "delta":
        # an edit batch moves nnz by its insert/delete counts and nothing
        # else the closed forms read — the base dims do the heavy lifting
        base = dims_from_task({"matrix": spec["base"], "setup": task["setup"]},
                              machine)
        nnz = base.nnz
        for batch in spec["batches"]:
            nnz += len(batch.get("inserts", ())) - len(batch.get("deletes", ()))
        return MatrixDims(base.num_rows, base.num_cols, max(nnz, 0))
    if spec["kind"] == "csr":
        rowptr = spec["rowptr"]
        nnz = int(rowptr[-1]) if len(rowptr) else 0
        return MatrixDims(spec["num_rows"], spec["num_cols"], nnz)
    if spec["kind"] == "coo":
        return MatrixDims(spec["num_rows"], spec["num_cols"], len(spec["rows"]))
    key = (spec["collection"], task["setup"]["scale"], spec["name"])
    dims = _named_dims.get(key)
    if dims is None:
        if materialize is None:
            from ..service.protocol import matrix_from_task

            def materialize():
                return matrix_from_task(task)

        dims = _named_dims[key] = MatrixDims.of(materialize())
    return dims


def answer_task(task: dict, machine: A64FX, name: str) -> dict | None:
    """The tier-0 wire result of a canonical task, or ``None``.

    ``None`` means the endpoint has no analytic surrogate (``sweep``
    measures the simulator); the daemon's degraded path turns that into a
    structured 503.
    """
    endpoint = task["endpoint"]
    if endpoint in ("sweep", "optimize"):
        # sweep measures the simulator; optimize needs the real pattern
        # (closed forms are permutation-invariant) — neither degrades
        return None
    return closed_answer(
        endpoint, dims_from_task(task, machine), machine,
        task["setup"]["num_threads"], name,
        way_options=task.get("way_options", ()),
        policies=task.get("policies", ()),
        consider_isolate_x=task.get("consider_isolate_x", True),
        min_ways=task.get("min_sector1_ways_with_prefetch", 4),
    )
