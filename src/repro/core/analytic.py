"""Closed-form miss counts for the streamed SpMV arrays (Section 3.1).

For an M-by-N matrix with K nonzeros and cache line size L, one SpMV sweep
streams:

* the nonzero values (8-byte):       ``ceil(8K / L)`` lines,
* the column indices (4-byte):       ``ceil(4K / L)`` lines,
* the row pointers (8-byte, M+1):    ``ceil(8(M+1) / L)`` lines,
* the output vector (8-byte, M):     ``ceil(8M / L)`` lines.

In steady-state iterative SpMV, an array incurs exactly its line count in
capacity misses per iteration whenever it cannot be retained in the cache
space available to it, and zero otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..spmv.csr import CSRMatrix
from .classification import reusable_bytes


def _lines(num_bytes: int, line_size: int) -> int:
    return -(-num_bytes // line_size)


@dataclass(frozen=True)
class StreamMisses:
    """Per-array streaming line counts of one SpMV iteration."""

    values: int
    colidx: int
    rowptr: int
    y: int

    @property
    def matrix_data(self) -> int:
        """Lines of the non-temporal matrix data (paper: a + colidx)."""
        return self.values + self.colidx

    @property
    def vectors(self) -> int:
        """Lines of the row-wise streamed reusable data (rowptr + y)."""
        return self.rowptr + self.y

    @property
    def total(self) -> int:
        return self.matrix_data + self.vectors


def stream_misses(matrix: CSRMatrix, line_size: int) -> StreamMisses:
    """Streaming miss counts of Section 3.1 for one SpMV iteration."""
    if line_size <= 0:
        raise ValueError("line_size must be positive")
    return StreamMisses(
        values=_lines(matrix.values_bytes, line_size),
        colidx=_lines(matrix.colidx_bytes, line_size),
        rowptr=_lines(matrix.rowptr_bytes, line_size),
        y=_lines(matrix.y_bytes, line_size),
    )


def method_b_per_array(
    matrix,
    machine,
    num_cmgs: int,
    streams: StreamMisses,
    s1: float,
    s2: float,
    x_misses: Callable[[float, int], int],
    policy,
) -> dict[str, int]:
    """Per-array L2 miss counts of one policy under the Method-B envelope.

    This is the single home of the Section-3.1/3.2.2 policy branching:
    streamed arrays contribute their line counts exactly when they cannot
    be retained in the space available to them, and the ``x`` term is
    delegated to ``x_misses(scale, capacity_lines)`` — a reuse-profile
    query (Method B proper), a sampled-profile query (ladder tier 1), or
    the all-or-nothing fit test (tier 0 / degraded mode).  ``matrix`` is
    anything exposing the CSR ``*_bytes`` properties (a ``CSRMatrix`` or
    a ``MatrixDims``).  Zero entries are dropped, matching the wire
    format.
    """
    line = machine.line_size
    per_array: dict[str, int] = {}
    if policy.l2_enabled:
        n0, n1 = machine.l2.partition_lines(policy.l2_sector1_ways)
        # matrix data streams through sector 1: misses unless retained
        if streams.matrix_data // num_cmgs > n1:
            per_array["values"] = streams.values
            per_array["colidx"] = streams.colidx
        # rowptr and y share sector 0 with x: stream misses unless the
        # reusable data fits the partition (class-2 criterion)
        if reusable_bytes(matrix, num_cmgs) > n0 * line:
            per_array["rowptr"] = streams.rowptr
            per_array["y"] = streams.y
        per_array["x"] = x_misses(s1, n0)
    else:
        total = machine.l2.capacity_lines
        # one floor over the sum, unlike classification.working_set_bytes
        # (two floors): the two spellings can differ by a byte
        working = (
            matrix.x_bytes + (matrix.total_bytes - matrix.x_bytes) // num_cmgs
        )
        if working > total * line:
            per_array["values"] = streams.values
            per_array["colidx"] = streams.colidx
            per_array["rowptr"] = streams.rowptr
            per_array["y"] = streams.y
            per_array["x"] = x_misses(s2, total)
        else:
            per_array["x"] = 0  # class (1): no capacity misses
    return {k: v for k, v in per_array.items() if v}


def method_b_scale_factors(matrix: CSRMatrix) -> tuple[float, float]:
    """The reuse-distance scaling factors s1, s2 of Section 3.2.2.

    ``s1 = (16 M/K + 8) / 8`` inflates x-only reuse distances when x shares
    its partition with ``rowptr`` and ``y``; ``s2 = (16 M/K + 20) / 8``
    additionally accounts for ``a`` and ``colidx`` when the cache is not
    partitioned.  Both are the average bytes touched per x element divided
    by the x element size.
    """
    if matrix.nnz == 0:
        raise ValueError("scale factors undefined for an empty matrix")
    ratio = matrix.num_rows / matrix.nnz
    s1 = (16.0 * ratio + 8.0) / 8.0
    s2 = (16.0 * ratio + 20.0) / 8.0
    return s1, s2
