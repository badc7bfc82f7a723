"""Incremental reuse engine for dynamic (mutating) sparse matrices.

Production graph workloads gain and lose edges continuously; re-running
the full stack pass — and cold-starting every cache key — on each edit
is exactly the cost the fidelity ladder and the cluster cache were built
to avoid.  This package makes pattern edits first-class:

* :mod:`repro.delta.delta` — canonical edge-delta batches
  (:class:`MatrixDelta`) with validation, a stable canonical form, and exact
  CSR patching that reports trace-coordinate mappings;
* :mod:`repro.delta.state` — :class:`ReuseState`, steady-state reuse
  distances patched *exactly* through a delta (byte-identical to a fresh
  periodic pass) within a work budget, :class:`BudgetExceeded` past it;
* :mod:`repro.delta.engine` — worker-side pricing of delta tasks: one
  fidelity-ladder answer on the edited pattern, whose tier 2 is patched
  incrementally when the structure localizes the edit and a full stack
  pass otherwise, with worker-local warm state chains.

The service surface is ``POST /delta`` (see :mod:`repro.service.app`):
a stored base key plus one edit batch derives a chained cache key whose
result is byte-identical to evaluating the edited matrix from scratch.
"""

from .delta import MAX_EDITS, DeltaApplication, DeltaError, MatrixDelta
from .engine import DEFAULT_BUDGET, evaluate_delta_task, seeded_model
from .state import BudgetExceeded, ReuseState, full_reuse_state, x_lines

__all__ = [
    "BudgetExceeded",
    "DEFAULT_BUDGET",
    "DeltaApplication",
    "DeltaError",
    "MAX_EDITS",
    "MatrixDelta",
    "ReuseState",
    "evaluate_delta_task",
    "full_reuse_state",
    "seeded_model",
    "x_lines",
]
