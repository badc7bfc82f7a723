"""Approximate stack simulation after Kim, Hill & Wood (SIGMETRICS 1991).

The paper computes its reuse distances with the stack-processing algorithm
of Kim et al., chosen because its per-reference cost is *independent of the
locality of the trace* (unlike a linked-list stack, whose cost is the stack
depth).  The algorithm partitions the LRU stack into contiguous *groups* of
bounded size; each line is tagged with its group, so a reference costs O(1)
amortized: the distance is read off the cumulative group sizes, the line
moves to the topmost group, and overflowing groups demote their
least-recently-used line to the next group.

The returned distance is exact at group granularity: for a line in group
``g``, the true stack depth lies in ``[starts[g], starts[g] + size[g])`` and
the midpoint of that range is reported.  With ``group_size=1`` the result is
exact.  Cache-boundary evaluations are exact whenever the capacity is a
multiple of the group size (capacities are whole numbers of ways times
sets).  With ``group_size=1`` it is an oracle of
:func:`repro.reuse.reuse_distances`.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.reuse import COLD


def reuse_distances_kim(
    trace: np.ndarray,
    groups: np.ndarray | None = None,
    group_size: int = 64,
) -> np.ndarray:
    """Approximate reuse distances with bounded per-reference cost.

    Parameters mirror :func:`repro.reuse.cdq.reuse_distances`;
    ``group_size`` is the stack-group capacity (distance resolution).
    """
    if group_size <= 0:
        raise ValueError("group_size must be positive")
    trace = np.asarray(trace, dtype=np.int64)
    n = trace.shape[0]
    if groups is None:
        labels = np.zeros(n, dtype=np.int64)
    else:
        labels = np.asarray(groups, dtype=np.int64)
        if labels.shape != (n,):
            raise ValueError("groups must have the same length as trace")
    out = np.empty(n, dtype=np.int64)
    stacks: dict[int, _GroupedStack] = {}
    for i in range(n):
        stack = stacks.get(labels[i].item())
        if stack is None:
            stack = _GroupedStack(group_size)
            stacks[labels[i].item()] = stack
        out[i] = stack.access(trace[i].item())
    return out


class _GroupedStack:
    """LRU stack partitioned into bounded groups (one partition's state).

    Re-accessed lines are removed lazily: the old deque entry stays behind
    with a stale version token and is discarded when it surfaces, keeping
    every operation O(1) amortized.
    """

    def __init__(self, group_size: int) -> None:
        self._group_size = group_size
        # each group is a deque of (line, version): left = most recent
        self._groups: list[deque] = [deque()]
        #: line -> (group index, version) of its single live entry
        self._where: dict[int, tuple[int, int]] = {}
        self._live: list[int] = [0]  # live entries per group
        self._version = 0

    def access(self, line: int) -> int:
        entry = self._where.get(line)
        if entry is None:
            distance = COLD
        else:
            g, _ = entry
            # distance approximated at group granularity: all live lines in
            # groups above, plus the midpoint of the line's own group
            above = sum(self._live[k] for k in range(g))
            distance = above + (self._live[g] - 1) // 2
            self._live[g] -= 1  # old entry becomes stale
        self._version += 1
        self._groups[0].appendleft((line, self._version))
        self._where[line] = (0, self._version)
        self._live[0] += 1
        self._cascade()
        return int(distance)

    def _cascade(self) -> None:
        """Demote LRU lines down the group chain until all groups fit."""
        groups, live = self._groups, self._live
        g = 0
        while g < len(groups):
            while live[g] > self._group_size:
                line, version = groups[g].pop()
                if self._where.get(line) != (g, version):
                    continue  # stale entry: discard silently
                live[g] -= 1
                if g + 1 == len(groups):
                    groups.append(deque())
                    live.append(0)
                groups[g + 1].appendleft((line, version))
                self._where[line] = (g + 1, version)
                live[g + 1] += 1
            g += 1
