"""The incremental engine across the paper's locality taxonomy.

On the one representative matrix per class of
:data:`repro.experiments.delta.CLASS_CASES` and a 64-edit
locality-preserving batch, classes 1 (banded) and 2 (block-diagonal)
keep an edit inside short reuse windows: the patch is taken and its
distances are byte-identical to a fresh full pass.  Classes 3a/3b
couple an edit to trace-spanning windows, so the patch budget overflows
and the engine falls back.  Speed is not checked here; the perfbench
``delta_chain`` workload records it.
"""

import pytest

from repro.experiments import ExperimentSetup
from repro.experiments.delta import CLASS_CASES, measure_delta, pattern_edits

LINE_SIZE = ExperimentSetup(scale=16, num_threads=1).machine().line_size


@pytest.mark.parametrize("rows", [20_000, 50_000])
@pytest.mark.parametrize("case", CLASS_CASES, ids=[c[0] for c in CLASS_CASES])
def test_local_classes_patch_exactly_and_global_ones_fall_back(case, rows):
    cls, _, make = case
    matrix = make(rows)
    row = measure_delta(matrix, LINE_SIZE, pattern_edits(matrix, 64))
    if cls in ("1", "2"):
        assert row["path"] == "incremental"
        assert row["identical"]
    else:
        assert (row["path"], row["reason"]) == ("fallback", "budget")
