"""Exact reuse distance with a Fenwick tree (Bennett-Kruskal style).

Classic O(n log n) stack-distance computation: sweep the trace keeping a
binary indexed tree with a 1 at every position that is currently the *last*
occurrence of its line.  The reuse distance of access ``i`` with previous
occurrence ``p`` is the number of ones in ``(p, i)``.

This is the textbook sequential algorithm, kept as an oracle of the
vectorized CDQ variant in :mod:`repro.reuse.cdq`.
"""

from __future__ import annotations

import numpy as np

from repro.reuse import COLD, compute_prev


class FenwickTree:
    """Binary indexed tree over ``size`` integer counters (prefix sums)."""

    def __init__(self, size: int) -> None:
        if size < 0:
            raise ValueError("size must be non-negative")
        self._size = size
        self._tree = np.zeros(size + 1, dtype=np.int64)

    def add(self, index: int, delta: int = 1) -> None:
        """Add ``delta`` at position ``index`` (0-based)."""
        if not 0 <= index < self._size:
            raise IndexError(f"index {index} out of range [0, {self._size})")
        i = index + 1
        tree = self._tree
        while i <= self._size:
            tree[i] += delta
            i += i & (-i)

    def prefix_sum(self, count: int) -> int:
        """Sum of the first ``count`` positions (indices < count)."""
        count = min(max(count, 0), self._size)
        total = 0
        tree = self._tree
        i = count
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return int(total)

    def range_sum(self, lo: int, hi: int) -> int:
        """Sum over positions in ``[lo, hi)``."""
        return self.prefix_sum(hi) - self.prefix_sum(lo)


def reuse_distances_fenwick(
    trace: np.ndarray, groups: np.ndarray | None = None
) -> np.ndarray:
    """Exact reuse distances via a Fenwick-tree sweep.

    Same semantics as :func:`tests.oracles.naive.reuse_distances_naive`:
    per-group stacks, ``COLD`` for first accesses.
    """
    trace = np.asarray(trace, dtype=np.int64)
    n = trace.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if groups is None:
        keys = trace
        order = np.arange(n)
    else:
        groups = np.asarray(groups, dtype=np.int64)
        if groups.shape != (n,):
            raise ValueError("groups must have the same length as trace")
        # make each group's accesses contiguous so windows stay in-group
        order = np.argsort(groups, kind="stable")
        span = int(trace.max()) + 1 if n else 1
        gmax = int(groups.max())
        if gmax and gmax > (2**62) // span:
            raise ValueError("group/line key space too large to combine")
        keys = groups[order] * span + trace[order]
    prev = compute_prev(keys)
    tree = FenwickTree(n)
    rd_sorted = np.empty(n, dtype=np.int64)
    for i in range(n):
        p = prev[i]
        if p < 0:
            rd_sorted[i] = COLD
        else:
            rd_sorted[i] = tree.range_sum(p + 1, i)
            tree.add(p, -1)
        tree.add(i, 1)
    out = np.empty(n, dtype=np.int64)
    out[order] = rd_sorted
    return out
