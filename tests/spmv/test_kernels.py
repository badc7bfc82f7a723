"""SpMV kernels: vectorized vs. the scalar oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spmv import CSRMatrix, flops, spmv, spmv_reference


def random_csr(n: int, density: float, seed: int) -> CSRMatrix:
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, n)) < density) * rng.standard_normal((n, n))
    return CSRMatrix.from_dense(dense)


def test_spmv_accumulates_into_y():
    m = CSRMatrix.from_dense(np.eye(3) * 2.0)
    x = np.array([1.0, 2.0, 3.0])
    y = np.ones(3)
    np.testing.assert_allclose(spmv(m, x, y), [3.0, 5.0, 7.0])


def test_spmv_default_y_is_zero():
    m = CSRMatrix.from_dense(np.eye(2))
    np.testing.assert_allclose(spmv(m, np.array([4.0, 5.0])), [4.0, 5.0])


def test_spmv_handles_empty_rows():
    dense = np.zeros((4, 4))
    dense[1, 2] = 3.0
    m = CSRMatrix.from_dense(dense)
    out = spmv(m, np.ones(4))
    np.testing.assert_allclose(out, [0.0, 3.0, 0.0, 0.0])


def test_spmv_empty_matrix():
    m = CSRMatrix(2, 3, np.zeros(3, dtype=np.int64), np.empty(0), np.empty(0))
    np.testing.assert_allclose(spmv(m, np.ones(3)), np.zeros(2))


def test_operand_shape_validation():
    m = CSRMatrix.from_dense(np.eye(3))
    with pytest.raises(ValueError):
        spmv(m, np.ones(2))
    with pytest.raises(ValueError):
        spmv(m, np.ones(3), np.ones(2))
    with pytest.raises(ValueError):
        spmv_reference(m, np.ones(4), np.ones(3))


def test_flops_is_two_per_nonzero():
    m = random_csr(10, 0.4, 0)
    assert flops(m) == 2 * m.nnz


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 20), density=st.floats(0.05, 0.9), seed=st.integers(0, 999))
def test_vectorized_matches_reference(n, density, seed):
    m = random_csr(n, density, seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal(n)
    y0 = rng.standard_normal(n)
    expected = spmv_reference(m, x, y0.copy())
    np.testing.assert_allclose(spmv(m, x, y0.copy()), expected, rtol=1e-12, atol=1e-9)
