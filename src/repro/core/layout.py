"""Cache-line layout of the SpMV data structures.

The model (paper Section 3.2.1, Fig. 1c) assigns cache-line numbers to the
elements of the five data structures involved in CSR SpMV.  Each array is
assumed to be aligned to a cache-line boundary and arrays occupy disjoint
line ranges — matching the paper's NUMA-aware, page-aligned allocations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..spmv.csr import (
    COLIDX_BYTES,
    CSRMatrix,
    ROWPTR_BYTES,
    VALUE_BYTES,
    VECTOR_BYTES,
)
from ..spmv.sector_policy import ARRAYS

#: Stable integer ids for the five kernel arrays (index into ARRAYS).
ARRAY_ID = {name: i for i, name in enumerate(ARRAYS)}
X, Y, VALUES, COLIDX, ROWPTR = (ARRAY_ID[a] for a in ARRAYS)

_ELEMENT_BYTES = {
    "x": VECTOR_BYTES,
    "y": VECTOR_BYTES,
    "values": VALUE_BYTES,
    "colidx": COLIDX_BYTES,
    "rowptr": ROWPTR_BYTES,
}


@dataclass(frozen=True)
class MemoryLayout:
    """Line-granular placement of the SpMV arrays.

    ``base[k]`` is the first global line number of array ``ARRAYS[k]``;
    ``num_lines[k]`` its extent.  Arrays never share a line.
    """

    line_size: int
    base: np.ndarray
    num_lines: np.ndarray

    @classmethod
    def from_counts(cls, counts: dict[str, int], line_size: int) -> "MemoryLayout":
        """Lay out the five kernel arrays with explicit element counts."""
        if line_size <= 0:
            raise ValueError("line_size must be positive")
        missing = set(ARRAYS) - set(counts)
        if missing:
            raise ValueError(f"missing element counts for {sorted(missing)}")
        num_lines = np.array(
            [
                -(-counts[a] * _ELEMENT_BYTES[a] // line_size)
                for a in ARRAYS
            ],
            dtype=np.int64,
        )
        base = np.zeros(len(ARRAYS), dtype=np.int64)
        np.cumsum(num_lines[:-1], out=base[1:])
        return cls(line_size=line_size, base=base, num_lines=num_lines)

    @classmethod
    def for_matrix(cls, matrix: CSRMatrix, line_size: int) -> "MemoryLayout":
        """Lay out x, y, values, colidx, rowptr consecutively, line-aligned."""
        return cls.from_counts(
            {
                "x": matrix.num_cols,
                "y": matrix.num_rows,
                "values": matrix.nnz,
                "colidx": matrix.nnz,
                "rowptr": matrix.num_rows + 1,
            },
            line_size,
        )

    @property
    def total_lines(self) -> int:
        return int(self.base[-1] + self.num_lines[-1])

    def lines_of(self, array: str, elements: np.ndarray) -> np.ndarray:
        """Global line numbers of the given element indices of ``array``."""
        aid = ARRAY_ID[array]
        elements = np.asarray(elements, dtype=np.int64)
        if elements.size and (
            elements.min() < 0
            or elements.max() * _ELEMENT_BYTES[array] // self.line_size
            >= self.num_lines[aid]
        ):
            raise ValueError(f"element index out of range for array {array!r}")
        return self.base[aid] + elements * _ELEMENT_BYTES[array] // self.line_size

    def array_of_line(self, line: int) -> str:
        """Name of the array owning a global line number."""
        if not 0 <= line < self.total_lines:
            raise ValueError(f"line {line} outside layout")
        idx = int(np.searchsorted(self.base, line, side="right")) - 1
        return ARRAYS[idx]

    def element_bytes(self, array: str) -> int:
        return _ELEMENT_BYTES[array]
