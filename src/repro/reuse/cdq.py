"""Vectorized exact reuse distance (offline divide-and-conquer counting).

This is the production stack-processing path of the reproduction.  It
computes exact LRU stack distances for traces of millions of references in
pure NumPy, which makes 490-matrix sweeps feasible on one core.

Derivation
----------
Let ``prev[i]`` be the previous access of the same line (same group), or -1.
The reuse distance is the number of distinct lines referenced strictly
between ``prev[i]`` and ``i``.  An access ``j`` in that window contributes a
*new* line iff it is the window's first occurrence of its line, i.e. iff
``prev[j] <= prev[i]``.  Hence::

    RD(i) = #{ j : prev[i] < j < i  and  prev[j] <= prev[i] }.

Every ``j <= prev[i]`` satisfies ``prev[j] < j <= prev[i]`` trivially, so::

    RD(i) = #{ j < i : prev[j] <= prev[i] } - (prev[i] + 1)

— a pure 2-D dominance count over the static point set ``(j, prev[j])``.
It is evaluated bottom-up (CDQ divide and conquer): at block size ``b``,
every pair of sibling blocks contributes, for each query ``i`` in the right
block, the count of points ``j`` in the left block with
``prev[j] <= prev[i]``.  Each ordered pair ``(j, i)`` is counted exactly
once, at the level where the two first share a block.  All blocks of one
level are processed in a single batched ``np.searchsorted`` by offsetting
each block's values into disjoint key ranges, so the Python-level work is
O(log n) with all inner loops in C: O(n log^2 n) total.

Groups (cache partitions, cache sets, private caches, CMG segments) are
handled by stable-sorting the trace by group first: each group's accesses
become contiguous, reuse windows never cross group boundaries, and the
identity above carries over unchanged with group-local ``prev``.

Window floor
------------
A distance is at most its window, ``w(i) = i - prev[i] - 1`` (the number
of group-sorted accesses strictly between the two references).  A caller
that only asks whether scaled distances reach a known set of capacities
can pass a *window floor* ``F``: every warm reference with ``w(i) < F``
is decided without counting and gets the placeholder distance 0, and the
dominance count runs for the queried positions only
(``_dominance_counts(prev, at=...)``).  Cold references are reported
exactly as always.  Floors come only from what a caller can be asked:
Method B's ladder tier 2 from its declared query points, the cache
simulator from its way counts and Method A from the smallest capacity a
legal policy queries (see their modules).  The sampler, the miss curves
and the delta engine's ``ReuseState`` use the exact pass; the unfloored
oracles that check the floored callers live in ``tests/oracles/``.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..obs.tracer import annotate as obs_annotate
from .fenwick import compute_prev, stable_order

#: Sentinel reuse distance of a cold (first-ever) access; effectively
#: infinite, so ``rd >= capacity`` classifies cold accesses as misses.
COLD = np.int64(2**62)

#: Sibling blocks up to this size are compared element by element when
#: only some positions are queried: cheaper than sorting every left half.
_DIRECT_BLOCK = 8


def _dominance_counts(prev: np.ndarray, at: np.ndarray | None = None) -> np.ndarray:
    """For each i, count ``#{ j < i : prev[j] <= prev[i] }`` (CDQ bottom-up).

    ``at`` (sorted, distinct positions) restricts the count to those
    positions; the result is then aligned with ``at``.

    Blocks are truncated to the true trace length: the trailing partial
    block of each level is processed exactly instead of padding the input
    to the next power of two (which overshoots working memory by up to 2x
    on the hot 4M+9nnz traces).  One scratch buffer holds the sorted left
    halves and is reused across all levels.
    """
    if at is not None:
        return _dominance_counts_at(prev, at)
    n = prev.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    offset = _block_offset(n)
    ans = np.zeros(n, dtype=np.int64)
    top = 1 << int(n - 1).bit_length() if n > 1 else 1
    # scratch for the sorted+offset left halves: complete pairs use at most
    # n/2 entries, and the top-level tail block can use up to top/2
    scratch = np.empty(max(top // 2, 1), dtype=np.int64)
    b = 1
    while b < top:
        step = 2 * b
        m = n // step  # complete (left, right) sibling pairs
        if m:
            pairs = prev[: m * step].reshape(m, step)
            left = scratch[: m * b].reshape(m, b)
            np.copyto(left, pairs[:, :b])
            left.sort(axis=1)
            offsets = np.arange(m, dtype=np.int64)[:, None] * offset
            left += offsets
            flat_queries = (pairs[:, b:] + offsets).ravel()
            counts = np.searchsorted(left.ravel(), flat_queries, side="right")
            counts -= np.repeat(np.arange(m, dtype=np.int64) * b, b)
            ans[: m * step].reshape(m, step)[:, b:] += counts.reshape(m, b)
        tail = m * step
        # trailing pair with a full left block and a partial right block;
        # a remainder of <= b elements is a lone left block (queried at a
        # higher level) and contributes nothing here
        if n - tail > b:
            tail_left = scratch[:b]
            np.copyto(tail_left, prev[tail : tail + b])
            tail_left.sort()
            ans[tail + b : n] += np.searchsorted(
                tail_left, prev[tail + b : n], side="right"
            )
        b = step
    return ans


def _block_offset(n: int) -> np.int64:
    """Key offset between blocks: values span [-1, n-1], so adding
    ``block * offset`` puts every block in a disjoint key range."""
    offset = np.int64(n + 2)
    if (n // 2 + 1) * offset >= np.iinfo(np.int64).max // 2:
        raise ValueError(f"trace of length {n} too large for int64 block keys")
    return offset


def _dominance_counts_at(prev: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The dominance counts of the positions ``at`` only.

    Per level, a query in a right half needs its sibling left block.  Up
    to :data:`_DIRECT_BLOCK` elements the left block is compared directly;
    above it every left half up to the last queried pair is sorted in one
    batch (as in the full pass) and only the queries are searched.  A
    queried pair always has a full left block, so no tail case arises.
    """
    n = prev.shape[0]
    at = np.asarray(at, dtype=np.int64)
    ans = np.zeros(at.shape[0], dtype=np.int64)
    if at.shape[0] == 0:
        return ans
    offset = _block_offset(n)
    values = prev[at]
    top = 1 << int(n - 1).bit_length() if n > 1 else 1
    scratch = np.empty(max(top // 2, 1), dtype=np.int64)
    item = prev.strides[0]
    b = 1
    while b < top:
        step = 2 * b
        right = np.flatnonzero(at & b)  # queries in the right half of a pair
        if right.size:
            pair = at[right] // step
            queried = values[right]
            if b <= _DIRECT_BLOCK:
                start = pair * step
                counts = (prev[start] <= queried).astype(np.int64)
                for k in range(1, b):
                    counts += prev[start + k] <= queried
            else:
                m = int(pair[-1]) + 1  # pairs up to the last queried one
                left = scratch[: m * b].reshape(m, b)
                np.copyto(left, as_strided(prev, (m, b), (step * item, item)))
                left.sort(axis=1)
                left += np.arange(m, dtype=np.int64)[:, None] * offset
                counts = np.searchsorted(left.ravel(), queried + pair * offset,
                                         side="right")
                counts -= pair * b
            ans[right] += counts
        b = step
    return ans


def _warm_distances(prev: np.ndarray, window_floor: int | None) -> np.ndarray:
    """In-group distances of the warm references (``prev >= 0``).

    Entries of cold references are left for the caller to overwrite.
    With a floor, warm references whose window is below it get the
    placeholder 0 uncounted, and the enclosing span is annotated with the
    number of references that were not given the placeholder.
    """
    if window_floor is None:
        return _dominance_counts(prev) - (prev + 1)
    n = prev.shape[0]
    warm = prev >= 0
    window = np.arange(n, dtype=np.int64) - prev - 1
    at = np.flatnonzero(warm & (window >= window_floor))
    rd = np.zeros(n, dtype=np.int64)
    rd[at] = _dominance_counts(prev, at) - (prev[at] + 1)
    obs_annotate(counted=n - (int(np.count_nonzero(warm)) - at.shape[0]))
    return rd


def reuse_distances(
    trace: np.ndarray,
    groups: np.ndarray | None = None,
    window_floor: int | None = None,
) -> np.ndarray:
    """Exact reuse distances of a trace, optionally per group.

    Parameters
    ----------
    trace:
        Integer line identifiers, one per access, in program order.
    groups:
        Optional integer group label per access.  Accesses only interact
        within their group (separate LRU stacks): used for cache partitions
        (sector 0 / sector 1), cache sets of a set-associative cache,
        private caches of different cores, and CMG segments — or any
        composition of these encoded into a single integer key.
    window_floor:
        Optional window floor (see the module docstring): warm accesses
        whose window is below it get the placeholder distance 0 instead
        of their exact distance.

    Returns
    -------
    ``int64`` array aligned with ``trace``; first accesses get
    :data:`COLD`.
    """
    trace = np.ascontiguousarray(trace, dtype=np.int64)
    n = trace.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if trace.min() < 0:
        raise ValueError("line identifiers must be non-negative")
    if groups is None:
        order = None
        keys = trace
    else:
        groups = np.ascontiguousarray(groups, dtype=np.int64)
        if groups.shape != (n,):
            raise ValueError("groups must have the same length as trace")
        if groups.min() < 0:
            raise ValueError("group labels must be non-negative")
        order = stable_order(groups)
        span = int(trace.max()) + 1
        gmax = int(groups.max())
        if gmax and gmax > (2**62) // span:
            raise ValueError("group/line key space too large to combine")
        keys = groups[order] * span + trace[order]
    prev = compute_prev(keys)
    rd = _warm_distances(prev, window_floor)
    rd[prev < 0] = COLD
    if order is None:
        return rd
    out = np.empty(n, dtype=np.int64)
    out[order] = rd
    return out


def miss_count(rd: np.ndarray, capacity_lines: int, mask: np.ndarray | None = None) -> int:
    """Number of misses for a fully associative LRU cache of given capacity.

    Implements the paper's Eq. (1): an access misses iff its reuse distance
    is at least the capacity (cold accesses always miss).  ``mask`` restricts
    the count to a subset of accesses (e.g. one partition or one array).
    """
    if capacity_lines < 0:
        raise ValueError("capacity must be non-negative")
    hits_possible = rd < capacity_lines
    if mask is not None:
        return int(np.count_nonzero(~hits_possible & mask))
    return int(np.count_nonzero(~hits_possible))


def hit_mask(rd: np.ndarray, capacity_lines: int) -> np.ndarray:
    """Boolean mask of accesses that *hit* in an LRU cache of given capacity."""
    if capacity_lines < 0:
        raise ValueError("capacity must be non-negative")
    return rd < capacity_lines
