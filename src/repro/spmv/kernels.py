"""SpMV kernels computing ``y <- y + A x`` for CSR matrices.

Two implementations are provided:

* :func:`spmv_reference` — a plain Python double loop, a line-for-line
  transcription of the paper's Listing 1.  It exists as the semantic oracle
  for tests and for the worked Figure-1 example.
* :func:`spmv` — a vectorized NumPy version used everywhere else.

Both accumulate into ``y`` (the paper's kernel is ``y[r] += a[i] * x[col]``),
so callers doing a plain product must pass a zero ``y``.
"""

from __future__ import annotations

import numpy as np

from .csr import CSRMatrix


def spmv_reference(matrix: CSRMatrix, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Scalar CSR SpMV, the oracle (Listing 1 of the paper)."""
    _check_operands(matrix, x, y)
    rowptr, colidx, values = matrix.rowptr, matrix.colidx, matrix.values
    for r in range(matrix.num_rows):
        acc = y[r]
        for i in range(rowptr[r], rowptr[r + 1]):
            acc += values[i] * x[colidx[i]]
        y[r] = acc
    return y


def spmv(matrix: CSRMatrix, x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """Vectorized CSR SpMV: ``y + A x`` (``y`` defaults to zeros).

    Uses a segmented reduction over the nonzeros (``np.add.reduceat`` on the
    row pointer), which preserves left-to-right accumulation order per row
    closely enough for the float64 tolerance used in tests.
    """
    if y is None:
        y = np.zeros(matrix.num_rows, dtype=np.float64)
    _check_operands(matrix, x, y)
    if matrix.nnz == 0:
        return y
    products = matrix.values * x[matrix.colidx]
    # reduceat misbehaves for empty rows (repeats the next segment), so mask
    starts = matrix.rowptr[:-1]
    nonempty = matrix.row_lengths > 0
    if np.all(nonempty):
        y += np.add.reduceat(products, starts)
    else:
        idx = np.flatnonzero(nonempty)
        partial = np.add.reduceat(products, starts[idx])
        y[idx] += partial
    return y


def flops(matrix: CSRMatrix) -> int:
    """Floating-point operations of one SpMV: 2 per nonzero."""
    return 2 * matrix.nnz


def _check_operands(matrix: CSRMatrix, x: np.ndarray, y: np.ndarray) -> None:
    if x.shape != (matrix.num_cols,):
        raise ValueError(f"x must have shape ({matrix.num_cols},), got {x.shape}")
    if y.shape != (matrix.num_rows,):
        raise ValueError(f"y must have shape ({matrix.num_rows},), got {y.shape}")
