"""Compressed Sparse Row (CSR) matrix container.

Implemented from scratch on top of plain NumPy arrays, mirroring the memory
layout assumed by the paper's SpMV kernel (Listing 1):

* ``rowptr`` — ``int64`` array of length ``num_rows + 1`` (8-byte values),
* ``colidx`` — ``int32`` array of length ``nnz`` (4-byte values),
* ``values`` — ``float64`` array of length ``nnz`` (8-byte values).

These element sizes enter the paper's analytic miss formulas
(8K/L, 4K/L, 8(M+1)/L, 8M/L terms), so they are fixed rather than generic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ROWPTR_BYTES = 8
COLIDX_BYTES = 4
VALUE_BYTES = 8
VECTOR_BYTES = 8


class ArrayFootprint:
    """Byte sizes of the five SpMV arrays from ``num_rows``, ``num_cols``
    and ``nnz``: the one definition behind :class:`CSRMatrix` and the
    dims-only :class:`repro.ladder.tier0.MatrixDims`."""

    @property
    def values_bytes(self) -> int:
        return VALUE_BYTES * self.nnz

    @property
    def colidx_bytes(self) -> int:
        return COLIDX_BYTES * self.nnz

    @property
    def rowptr_bytes(self) -> int:
        return ROWPTR_BYTES * (self.num_rows + 1)

    @property
    def x_bytes(self) -> int:
        return VECTOR_BYTES * self.num_cols

    @property
    def y_bytes(self) -> int:
        return VECTOR_BYTES * self.num_rows

    @property
    def matrix_bytes(self) -> int:
        """Bytes of the non-temporal matrix data (values + colidx + rowptr)."""
        return self.values_bytes + self.colidx_bytes + self.rowptr_bytes

    @property
    def total_bytes(self) -> int:
        """Full SpMV working set: matrix data plus both vectors."""
        return self.matrix_bytes + self.x_bytes + self.y_bytes


@dataclass(frozen=True)
class CSRMatrix(ArrayFootprint):
    """A sparse matrix in CSR format.

    Rows are ``num_rows``, columns ``num_cols``; ``rowptr[r]:rowptr[r+1]``
    index the nonzeros of row ``r`` in ``colidx``/``values``.
    """

    num_rows: int
    num_cols: int
    rowptr: np.ndarray
    colidx: np.ndarray
    values: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "rowptr", np.ascontiguousarray(self.rowptr, dtype=np.int64))
        object.__setattr__(self, "colidx", np.ascontiguousarray(self.colidx, dtype=np.int32))
        object.__setattr__(self, "values", np.ascontiguousarray(self.values, dtype=np.float64))
        if self.num_rows < 0 or self.num_cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if self.rowptr.shape != (self.num_rows + 1,):
            raise ValueError(
                f"rowptr must have length num_rows+1={self.num_rows + 1}, "
                f"got {self.rowptr.shape[0]}"
            )
        if self.rowptr[0] != 0:
            raise ValueError("rowptr[0] must be 0")
        if np.any(np.diff(self.rowptr) < 0):
            raise ValueError("rowptr must be non-decreasing")
        nnz = int(self.rowptr[-1])
        if self.colidx.shape != (nnz,):
            raise ValueError(f"colidx must have length nnz={nnz}, got {self.colidx.shape[0]}")
        if self.values.shape != (nnz,):
            raise ValueError(f"values must have length nnz={nnz}, got {self.values.shape[0]}")
        if nnz and (self.colidx.min() < 0 or self.colidx.max() >= self.num_cols):
            raise ValueError("column indices out of range")

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored nonzeros (K in the paper)."""
        return int(self.rowptr[-1])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_rows, self.num_cols)

    @property
    def row_lengths(self) -> np.ndarray:
        """Nonzeros per row."""
        return np.diff(self.rowptr)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(
        cls,
        num_rows: int,
        num_cols: int,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray | None = None,
        name: str = "",
        sum_duplicates: bool = True,
    ) -> "CSRMatrix":
        """Build a CSR matrix from coordinate triplets.

        Duplicate (row, col) entries are summed when ``sum_duplicates`` is
        set, matching the usual sparse-assembly convention.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.shape != cols.shape:
            raise ValueError("rows and cols must have the same length")
        if vals is None:
            vals = np.ones(rows.shape[0], dtype=np.float64)
        else:
            vals = np.asarray(vals, dtype=np.float64)
            if vals.shape != rows.shape:
                raise ValueError("vals must have the same length as rows/cols")
        if rows.size:
            if rows.min() < 0 or rows.max() >= num_rows:
                raise ValueError("row indices out of range")
            if cols.min() < 0 or cols.max() >= num_cols:
                raise ValueError("column indices out of range")
        if int(num_rows) * int(num_cols) <= np.iinfo(np.int64).max:
            # one stable sort of the row-major position: lexsort's order
            order = np.argsort(rows * num_cols + cols, kind="stable")
        else:
            order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if sum_duplicates and rows.size:
            keep = np.empty(rows.shape[0], dtype=bool)
            keep[0] = True
            keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            group = np.cumsum(keep) - 1
            summed = np.zeros(int(group[-1]) + 1, dtype=np.float64)
            np.add.at(summed, group, vals)
            rows, cols, vals = rows[keep], cols[keep], summed
        rowptr = np.zeros(num_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=num_rows), out=rowptr[1:])
        return cls(num_rows, num_cols, rowptr, cols.astype(np.int32), vals, name=name)

    @classmethod
    def from_dense(cls, dense: np.ndarray, name: str = "") -> "CSRMatrix":
        """Build a CSR matrix from a 2-D dense array, dropping zeros."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError("dense must be 2-D")
        rows, cols = np.nonzero(dense)
        return cls.from_coo(
            dense.shape[0], dense.shape[1], rows, cols, dense[rows, cols], name=name
        )

    def to_dense(self) -> np.ndarray:
        """Densify (for tests / tiny matrices only)."""
        out = np.zeros(self.shape, dtype=np.float64)
        rows = np.repeat(np.arange(self.num_rows), self.row_lengths)
        out[rows, self.colidx] = self.values
        return out

    def to_coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (rows, cols, values) coordinate arrays."""
        rows = np.repeat(np.arange(self.num_rows, dtype=np.int64), self.row_lengths)
        return rows, self.colidx.astype(np.int64), self.values.copy()

    def transpose(self) -> "CSRMatrix":
        """Return the transpose as a new CSR matrix."""
        rows, cols, vals = self.to_coo()
        return CSRMatrix.from_coo(
            self.num_cols, self.num_rows, cols, rows, vals,
            name=f"{self.name}^T" if self.name else "",
            sum_duplicates=False,
        )

    def permute(self, row_perm: np.ndarray, col_perm: np.ndarray | None = None) -> "CSRMatrix":
        """Symmetric or two-sided permutation ``A[p, :][:, q]``.

        ``row_perm[i]`` gives the *original* row placed at new position ``i``
        (gather convention).  ``col_perm`` defaults to ``row_perm`` for
        square matrices and to identity otherwise.
        """
        row_perm = np.asarray(row_perm, dtype=np.int64)
        if row_perm.shape != (self.num_rows,):
            raise ValueError("row_perm must have length num_rows")
        if col_perm is None:
            col_perm = row_perm if self.num_rows == self.num_cols else np.arange(self.num_cols)
        col_perm = np.asarray(col_perm, dtype=np.int64)
        if col_perm.shape != (self.num_cols,):
            raise ValueError("col_perm must have length num_cols")
        inv_col = np.empty(self.num_cols, dtype=np.int64)
        inv_col[col_perm] = np.arange(self.num_cols)
        lengths = self.row_lengths[row_perm]
        rowptr = np.zeros(self.num_rows + 1, dtype=np.int64)
        np.cumsum(lengths, out=rowptr[1:])
        colidx = np.empty(self.nnz, dtype=np.int32)
        values = np.empty(self.nnz, dtype=np.float64)
        # gather rows in permuted order
        src_starts = self.rowptr[row_perm]
        idx = np.repeat(src_starts - rowptr[:-1], lengths) + np.arange(self.nnz)
        colidx[:] = inv_col[self.colidx[idx]]
        values[:] = self.values[idx]
        # keep columns sorted within each row
        out = CSRMatrix(self.num_rows, self.num_cols, rowptr, colidx, values, name=self.name)
        return out.sort_indices()

    def sort_indices(self) -> "CSRMatrix":
        """Return a copy with column indices sorted within each row."""
        rows = np.repeat(np.arange(self.num_rows, dtype=np.int64), self.row_lengths)
        order = np.lexsort((self.colidx, rows))
        return CSRMatrix(
            self.num_rows,
            self.num_cols,
            self.rowptr,
            self.colidx[order],
            self.values[order],
            name=self.name,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return (
            f"CSRMatrix{label}({self.num_rows}x{self.num_cols}, nnz={self.nnz}, "
            f"{self.total_bytes / 2**20:.2f} MiB working set)"
        )
