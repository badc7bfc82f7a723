"""CSRMatrix construction, conversion and permutation tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spmv import CSRMatrix


def small_matrix() -> CSRMatrix:
    dense = np.array(
        [
            [0.0, 1.0, 2.0, 0.0],
            [3.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 4.0, 5.0],
            [0.0, 6.0, 0.0, 7.0],
        ]
    )
    return CSRMatrix.from_dense(dense, name="small")


def test_from_dense_roundtrip():
    m = small_matrix()
    assert m.shape == (4, 4)
    assert m.nnz == 7
    np.testing.assert_array_equal(m.to_dense(), small_matrix().to_dense())


def test_from_coo_sums_duplicates():
    m = CSRMatrix.from_coo(
        2, 2, np.array([0, 0, 1]), np.array([1, 1, 0]), np.array([2.0, 3.0, 1.0])
    )
    assert m.nnz == 2
    assert m.to_dense()[0, 1] == 5.0


def test_from_coo_keeps_duplicates_when_asked():
    m = CSRMatrix.from_coo(
        2, 2, np.array([0, 0]), np.array([1, 1]), sum_duplicates=False
    )
    assert m.nnz == 2


def test_byte_sizes_match_paper_element_sizes():
    m = small_matrix()
    assert m.values_bytes == 8 * m.nnz
    assert m.colidx_bytes == 4 * m.nnz
    assert m.rowptr_bytes == 8 * (m.num_rows + 1)
    assert m.x_bytes == 8 * m.num_cols
    assert m.y_bytes == 8 * m.num_rows
    assert m.total_bytes == m.matrix_bytes + m.x_bytes + m.y_bytes


def test_row_lengths():
    assert small_matrix().row_lengths.tolist() == [2, 1, 2, 2]


def test_validation_rejects_malformed_inputs():
    with pytest.raises(ValueError):
        CSRMatrix(2, 2, np.array([0, 1]), np.array([0]), np.array([1.0]))
    with pytest.raises(ValueError):
        CSRMatrix(1, 1, np.array([0, 2]), np.array([0]), np.array([1.0]))
    with pytest.raises(ValueError):
        CSRMatrix(1, 1, np.array([1, 1]), np.empty(0), np.empty(0))
    with pytest.raises(ValueError):
        CSRMatrix(1, 1, np.array([0, 1]), np.array([5]), np.array([1.0]))
    with pytest.raises(ValueError):
        CSRMatrix(2, 2, np.array([0, 2, 1]), np.array([0, 1]), np.array([1.0, 1.0]))


def test_from_coo_rejects_out_of_range():
    with pytest.raises(ValueError):
        CSRMatrix.from_coo(2, 2, np.array([2]), np.array([0]))
    with pytest.raises(ValueError):
        CSRMatrix.from_coo(2, 2, np.array([0]), np.array([-1]))


def test_transpose_matches_dense_transpose():
    m = small_matrix()
    np.testing.assert_array_equal(m.transpose().to_dense(), m.to_dense().T)


def test_permute_matches_dense_permutation():
    m = small_matrix()
    perm = np.array([2, 0, 3, 1])
    dense = m.to_dense()[perm][:, perm]
    np.testing.assert_array_equal(m.permute(perm).to_dense(), dense)


def test_permute_rejects_bad_lengths():
    m = small_matrix()
    with pytest.raises(ValueError):
        m.permute(np.array([0, 1]))
    with pytest.raises(ValueError):
        m.permute(np.arange(4), np.array([0]))


def test_sort_indices_orders_columns():
    m = CSRMatrix.from_coo(
        1, 4, np.array([0, 0, 0]), np.array([3, 0, 2]), sum_duplicates=False
    )
    assert m.sort_indices().colidx.tolist() == [0, 2, 3]


def test_empty_matrix():
    m = CSRMatrix(0, 0, np.zeros(1, dtype=np.int64), np.empty(0), np.empty(0))
    assert m.nnz == 0
    # rowptr always stores one sentinel element, everything else is empty
    assert m.total_bytes == m.rowptr_bytes == 8


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 12),
    seed=st.integers(0, 1000),
)
def test_coo_dense_roundtrip_property(n, seed):
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, n)) < 0.3) * rng.random((n, n))
    m = CSRMatrix.from_dense(dense)
    np.testing.assert_allclose(m.to_dense(), dense)
    rows, cols, vals = m.to_coo()
    m2 = CSRMatrix.from_coo(n, n, rows, cols, vals)
    np.testing.assert_allclose(m2.to_dense(), dense)


def _from_coo_by_lexsort(num_rows, num_cols, rows, cols, vals, sum_duplicates):
    """The two-key assembly ``from_coo`` replaced: lexsort, then
    scatter-add duplicates and row counts."""
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    if sum_duplicates and rows.size:
        keep = np.ones(rows.shape[0], dtype=bool)
        keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        group = np.cumsum(keep) - 1
        summed = np.zeros(int(group[-1]) + 1)
        np.add.at(summed, group, vals)
        rows, cols, vals = rows[keep], cols[keep], summed
    rowptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.add.at(rowptr, rows + 1, 1)
    return np.cumsum(rowptr), cols.astype(np.int32), vals


def _assert_assembles_like_lexsort(num_rows, num_cols, rows, cols, vals, sum_duplicates):
    got = CSRMatrix.from_coo(num_rows, num_cols, rows, cols, vals,
                             sum_duplicates=sum_duplicates)
    rowptr, colidx, values = _from_coo_by_lexsort(
        num_rows, num_cols, rows, cols, vals, sum_duplicates)
    for actual, expected in ((got.rowptr, rowptr), (got.colidx, colidx),
                             (got.values, values)):
        assert actual.dtype == expected.dtype
        assert actual.tobytes() == expected.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    num_rows=st.integers(1, 30),
    num_cols=st.integers(1, 30),
    nnz=st.integers(0, 120),
    seed=st.integers(0, 2**16),
    sum_duplicates=st.booleans(),
)
def test_from_coo_orders_like_lexsort(num_rows, num_cols, nnz, seed, sum_duplicates):
    # unsorted triplets with duplicate coordinates; rows above num_rows // 2
    # stay empty so empty rows occur inside and at the end of rowptr
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, max(1, num_rows // 2), nnz)
    cols = rng.integers(0, num_cols, nnz)
    vals = rng.standard_normal(nnz)
    _assert_assembles_like_lexsort(num_rows, num_cols, rows, cols, vals, sum_duplicates)


def test_from_coo_with_no_entries():
    empty = np.empty(0, dtype=np.int64)
    _assert_assembles_like_lexsort(5, 3, empty, empty, np.empty(0), True)
    assert CSRMatrix.from_coo(5, 3, empty, empty).rowptr.tolist() == [0] * 6


def test_from_coo_falls_back_to_lexsort_when_the_position_key_overflows():
    # rows * num_cols wraps int64 here, so a one-key sort would misorder
    num_rows, num_cols = 4, 2**62
    rows = np.array([3, 0, 2, 3, 0, 1, 3], dtype=np.int64)
    cols = np.array([5, 9, 0, 5, 1, 2, 0], dtype=np.int64)
    vals = np.arange(1.0, 8.0)
    for sum_duplicates in (True, False):
        _assert_assembles_like_lexsort(num_rows, num_cols, rows, cols, vals,
                                       sum_duplicates)
