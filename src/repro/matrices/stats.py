"""Structural statistics of sparse matrices used throughout the paper.

Section 4.5 conditions model accuracy on the mean (mu_K) and coefficient of
variation (CV_K) of nonzeros per row; locality discussions use the matrix
bandwidth and profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..spmv.csr import CSRMatrix


@dataclass(frozen=True)
class MatrixStats:
    """Summary statistics of a sparsity pattern."""

    num_rows: int
    num_cols: int
    nnz: int
    mean_nnz_per_row: float
    cv_nnz_per_row: float
    max_nnz_per_row: int
    bandwidth: int
    avg_column_distance: float
    working_set_bytes: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.num_rows}x{self.num_cols}, K={self.nnz}, "
            f"mu_K={self.mean_nnz_per_row:.2f}, CV_K={self.cv_nnz_per_row:.2f}, "
            f"bw={self.bandwidth}"
        )


def matrix_stats(matrix: CSRMatrix) -> MatrixStats:
    """Compute the summary statistics of a matrix."""
    lengths = matrix.row_lengths.astype(np.float64)
    mean = float(lengths.mean()) if matrix.num_rows else 0.0
    std = float(lengths.std()) if matrix.num_rows else 0.0
    cv = std / mean if mean > 0 else 0.0
    if matrix.nnz:
        rows = np.repeat(np.arange(matrix.num_rows, dtype=np.int64), matrix.row_lengths)
        dist = np.abs(matrix.colidx.astype(np.int64) - rows)
        bandwidth = int(dist.max())
        avg_dist = float(dist.mean())
    else:
        bandwidth = 0
        avg_dist = 0.0
    return MatrixStats(
        num_rows=matrix.num_rows,
        num_cols=matrix.num_cols,
        nnz=matrix.nnz,
        mean_nnz_per_row=mean,
        cv_nnz_per_row=cv,
        max_nnz_per_row=int(lengths.max()) if matrix.num_rows else 0,
        bandwidth=bandwidth,
        avg_column_distance=avg_dist,
        working_set_bytes=matrix.total_bytes,
    )


def meets_method_b_regularity(stats: MatrixStats) -> bool:
    """The paper's Section 4.5.2 filter: ``mu_K >= 8`` and ``CV_K <= 1``.

    Matrices passing this filter are the ones for which method (B)'s
    average scaling factor is representative.  Only ``mean_nnz_per_row``
    and ``cv_nnz_per_row`` are read, so an experiment record carrying
    both qualifies as well.
    """
    return stats.mean_nnz_per_row >= 8.0 and stats.cv_nnz_per_row <= 1.0
