"""MatrixDelta canonicalization and exact CSR patching."""

import numpy as np
import pytest

from repro.delta import MAX_EDITS, DeltaError, MatrixDelta
from repro.matrices.generators import banded
from repro.spmv.csr import CSRMatrix


def test_from_dict_canonicalizes_order_and_fingerprint():
    a = MatrixDelta.from_dict({
        "inserts": [[5, 1, 2.0], [0, 3], [0, 1, 1.5]],
        "deletes": [[9, 9], [2, 0]],
    })
    b = MatrixDelta.from_dict({
        "inserts": [[0, 1, 1.5], [5, 1, 2.0], [0, 3]],
        "deletes": [[2, 0], [9, 9]],
    })
    assert a.to_dict() == b.to_dict()
    # sorted by (row, col); an insert's value is validated and dropped
    assert a.to_dict()["inserts"] == [[0, 1], [0, 3], [5, 1]]
    assert a.to_dict()["deletes"] == [[2, 0], [9, 9]]
    assert a.num_inserts == 3 and a.num_deletes == 2 and a.num_edits == 5


def test_different_batches_have_different_fingerprints():
    a = MatrixDelta.from_dict({"inserts": [[0, 1]]})
    b = MatrixDelta.from_dict({"inserts": [[0, 2]]})
    # a value is not part of the batch: only the pattern edit counts
    c = MatrixDelta.from_dict({"inserts": [[0, 1, 2.0]]})
    assert a.to_dict() != b.to_dict()
    assert a.to_dict() == c.to_dict()


@pytest.mark.parametrize("payload, fragment", [
    ([], "must be an object"),
    ({"inserts": [], "deletes": [], "upserts": []}, "unknown delta fields"),
    ({"inserts": [], "deletes": []}, "at least one"),
    ({"inserts": "0,1"}, "list of"),
    ({"inserts": [[0]]}, "must be [row, col]"),
    ({"inserts": [[0, 1, 2.0, 3.0]]}, "must be [row, col]"),
    ({"deletes": [[0, 1, 2.0]]}, "must be [row, col]"),
    ({"inserts": [[0, "x"]]}, "not numeric"),
    ({"inserts": [[0, 1], [0, 1, 5.0]]}, "duplicate edge in inserts"),
    ({"deletes": [[3, 3], [3, 3]]}, "duplicate edge in deletes"),
    ({"inserts": [[2, 2]], "deletes": [[2, 2]]}, "both inserts and deletes"),
], ids=["not-object", "unknown-field", "empty", "not-a-list", "short-entry",
        "long-entry", "delete-with-value", "non-numeric", "dup-insert",
        "dup-delete", "overlap"])
def test_from_dict_rejections(payload, fragment):
    with pytest.raises(DeltaError) as excinfo:
        MatrixDelta.from_dict(payload)
    assert fragment in str(excinfo.value)


def test_from_dict_rejects_oversized_batches():
    edits = [[0, c] for c in range(MAX_EDITS + 1)]
    with pytest.raises(DeltaError, match="exceeds"):
        MatrixDelta.from_dict({"deletes": edits})


def _brute_force(matrix: CSRMatrix, delta: MatrixDelta):
    """Rebuild the edited pattern from an explicit edge dictionary."""
    edges = {}
    rows = np.repeat(np.arange(matrix.num_rows), np.diff(matrix.rowptr))
    for r, c, v in zip(rows, matrix.colidx, matrix.values):
        edges[int(r), int(c)] = float(v)
    for r, c in zip(delta.delete_rows, delta.delete_cols):
        del edges[int(r), int(c)]
    for r, c in zip(delta.insert_rows, delta.insert_cols):
        edges[int(r), int(c)] = 1.0  # an insert's value is not kept
    keys = sorted(edges)
    rowptr = np.zeros(matrix.num_rows + 1, dtype=np.int64)
    for r, _ in keys:
        rowptr[r + 1] += 1
    return (np.cumsum(rowptr),
            np.array([c for _, c in keys], dtype=np.int32),
            np.array([edges[k] for k in keys]))


def test_apply_matches_brute_force_including_mappings():
    matrix = banded(300, 6, 4, seed=3)
    delta = MatrixDelta.from_dict({
        "inserts": [[10, 5, 2.5], [10, 6], [150, 148], [299, 290]],
        "deletes": [[10, int(matrix.colidx[matrix.rowptr[10]])],
                    [200, int(matrix.colidx[matrix.rowptr[200]])]],
    })
    app = delta.apply(matrix)
    rowptr, colidx, values = _brute_force(matrix, delta)
    assert np.array_equal(app.matrix.rowptr, rowptr)
    assert np.array_equal(app.matrix.colidx, colidx)
    assert np.array_equal(app.matrix.values, values)
    assert app.n_old == matrix.nnz
    assert app.n_new == matrix.nnz + 2

    # each surviving old nonzero must land on its own (row, col)
    old_rows = np.repeat(np.arange(matrix.num_rows), np.diff(matrix.rowptr))
    new_rows = np.repeat(np.arange(matrix.num_rows),
                         np.diff(app.matrix.rowptr))
    deleted = {(int(r), int(c))
               for r, c in zip(delta.delete_rows, delta.delete_cols)}
    for k in range(matrix.nnz):
        edge = (int(old_rows[k]), int(matrix.colidx[k]))
        pos = int(app.new_pos_of_old[k])
        if edge in deleted:
            assert pos == -1
        else:
            assert (int(new_rows[pos]), int(app.matrix.colidx[pos])) == edge
    inserted = {(int(new_rows[p]), int(app.matrix.colidx[p]))
                for p in app.inserted_pos}
    assert inserted == {(int(r), int(c)) for r, c
                        in zip(delta.insert_rows, delta.insert_cols)}
    assert np.array_equal(app.deleted_pos, np.sort(app.deleted_pos))
    assert app.matrix.name == matrix.name


def test_apply_rejects_inconsistent_edits():
    matrix = banded(100, 4, 3, seed=0)
    existing = int(matrix.colidx[matrix.rowptr[5]])
    with pytest.raises(DeltaError, match="existing edge"):
        MatrixDelta.from_dict({"inserts": [[5, existing]]}).apply(matrix)
    with pytest.raises(DeltaError, match="absent edge"):
        MatrixDelta.from_dict({"deletes": [[0, 99]]}).apply(matrix)
    with pytest.raises(DeltaError, match="out of bounds"):
        MatrixDelta.from_dict({"inserts": [[0, 100]]}).apply(matrix)
    with pytest.raises(DeltaError, match="out of bounds"):
        MatrixDelta.from_dict({"deletes": [[100, 0]]}).apply(matrix)


def test_apply_rejects_non_canonical_patterns():
    bad = CSRMatrix(2, 4, np.array([0, 2, 2]),
                    np.array([3, 1], dtype=np.int32), np.ones(2), name="bad")
    with pytest.raises(DeltaError, match="canonical"):
        MatrixDelta.from_dict({"inserts": [[0, 0]]}).apply(bad)


def test_junctions_mark_deletion_scars_between_kept_neighbours():
    matrix = banded(50, 4, 4, seed=1)
    last_row = 49
    delta = MatrixDelta.from_dict({
        "deletes": [[0, int(matrix.colidx[matrix.rowptr[0]])],
                    [last_row, int(matrix.colidx[matrix.nnz - 1])]],
    })
    app = delta.apply(matrix)
    junctions = app.junctions()
    # half-positions strictly between integer slots; a trailing delete
    # scars at n_new - 0.5
    assert junctions.shape == (2,)
    assert np.all(junctions == np.floor(junctions) + 0.5)
    assert junctions[-1] == app.n_new - 0.5


def test_chained_applies_compose():
    matrix = banded(200, 6, 4, seed=2)
    first = MatrixDelta.from_dict({"inserts": [[0, 30, 3.0]]})
    second = MatrixDelta.from_dict({"deletes": [[0, 30]]})
    once = first.apply(matrix).matrix
    back = second.apply(once).matrix
    assert np.array_equal(back.rowptr, matrix.rowptr)
    assert np.array_equal(back.colidx, matrix.colidx)
    assert np.array_equal(back.values, matrix.values)
