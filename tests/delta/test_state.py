"""Incremental reuse-distance patching: byte identity and the budget.

The property under test is the module's whole contract: for *any* valid
edit batch on *any* of the four paper classes, an in-budget
:meth:`ReuseState.apply` must produce distances (and previous-occurrence
arrays) **byte-identical** to a full re-evaluation of the edited
pattern — not approximately equal, identical.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delta import BudgetExceeded, MatrixDelta, full_reuse_state
from repro.delta.state import patch_prev, x_lines
from repro.matrices.generators import (
    banded,
    block_diagonal,
    power_law,
    random_uniform,
)
from repro.reuse.fenwick import compute_prev

LINE_SIZE = 256

#: One small representative per paper class (1, 2, 3a, 3b).
CLASS_MATRICES = {
    "banded": banded(400, 6, 4, seed=3),
    "block": block_diagonal(384, 16, fill=0.4, seed=3),
    "random": random_uniform(400, 5, seed=3),
    "power": power_law(400, 5, seed=3),
}


def random_edits(matrix, count: int, seed: int) -> MatrixDelta:
    """``count`` arbitrary valid edits: absent inserts + existing deletes."""
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(matrix.num_rows), np.diff(matrix.rowptr))
    existing = {(int(r), int(c)) for r, c in zip(rows, matrix.colidx)}
    inserts, deletes, taken = [], [], set()
    while len(inserts) < count - count // 2:
        r = int(rng.integers(matrix.num_rows))
        c = int(rng.integers(matrix.num_cols))
        if (r, c) not in existing and (r, c) not in taken:
            inserts.append([r, c, float(rng.uniform(0.5, 2.0))])
            taken.add((r, c))
    pool = sorted(existing)
    for k in rng.permutation(len(pool))[: count // 2]:
        deletes.append(list(pool[int(k)]))
    return MatrixDelta.from_dict({"inserts": inserts, "deletes": deletes})


@pytest.mark.parametrize("label", sorted(CLASS_MATRICES))
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), count=st.integers(1, 40))
def test_patched_state_is_byte_identical_to_full_pass(label, seed, count):
    matrix = CLASS_MATRICES[label]
    state = full_reuse_state(matrix, LINE_SIZE)
    application = random_edits(matrix, count, seed).apply(matrix)
    patched = state.apply(application, budget=10**12)
    fresh = full_reuse_state(application.matrix, LINE_SIZE)
    assert np.array_equal(patched.rd, fresh.rd)
    assert np.array_equal(patched.prev, fresh.prev)
    assert patched.nnz == application.matrix.nnz


@pytest.mark.parametrize("label", sorted(CLASS_MATRICES))
def test_chained_patches_stay_byte_identical(label):
    matrix = CLASS_MATRICES[label]
    state = full_reuse_state(matrix, LINE_SIZE)
    for step in range(3):
        application = random_edits(matrix, 20, seed=step).apply(matrix)
        state = state.apply(application, budget=10**12)
        matrix = application.matrix
        fresh = full_reuse_state(matrix, LINE_SIZE)
        assert np.array_equal(state.rd, fresh.rd)
        assert np.array_equal(state.prev, fresh.prev)


def test_patched_prev_matches_compute_prev():
    matrix = CLASS_MATRICES["banded"]
    state = full_reuse_state(matrix, LINE_SIZE)
    application = random_edits(matrix, 24, seed=9).apply(matrix)
    lines = x_lines(application.matrix, LINE_SIZE)
    patch = patch_prev(state.prev, LINE_SIZE, application)
    assert np.array_equal(patch.prev, compute_prev(lines))


def test_zero_budget_raises_budget_exceeded_with_measured_work():
    matrix = CLASS_MATRICES["random"]
    state = full_reuse_state(matrix, LINE_SIZE)
    application = random_edits(matrix, 20, seed=1).apply(matrix)
    with pytest.raises(BudgetExceeded) as excinfo:
        state.apply(application, budget=0)
    assert excinfo.value.work > 0
    assert excinfo.value.budget == 0
    # the state itself is untouched by a failed patch
    assert state.nnz == matrix.nnz


def test_nnz_mismatch_is_rejected():
    matrix = CLASS_MATRICES["banded"]
    other = banded(380, 6, 4, seed=5)
    state = full_reuse_state(other, LINE_SIZE)
    application = random_edits(matrix, 4, seed=0).apply(matrix)
    with pytest.raises(ValueError, match="nonzeros"):
        state.apply(application, budget=10**12)
