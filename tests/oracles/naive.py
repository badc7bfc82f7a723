"""Mattson LRU stack processing, the oracle of :func:`repro.reuse.reuse_distances`.

The original stack algorithm of Mattson et al. (1970): maintain the LRU
stack explicitly; the reuse (stack) distance of an access is the depth of
the accessed line, which is then moved to the top.  O(n * m) for m distinct
lines — used only as the semantic oracle in tests and for tiny examples.
"""

from __future__ import annotations

import numpy as np

from repro.reuse import COLD


def reuse_distances_naive(
    trace: np.ndarray, groups: np.ndarray | None = None
) -> np.ndarray:
    """Exact reuse distances by explicit LRU-stack simulation.

    Parameters
    ----------
    trace:
        Sequence of accessed line identifiers.
    groups:
        Optional per-access group labels.  Accesses only interact with
        accesses of the same group (separate LRU stacks per group) — used to
        express cache partitions and cache sets.

    Returns
    -------
    Array of reuse distances; ``COLD`` marks first accesses.
    """
    trace = np.asarray(trace)
    n = trace.shape[0]
    if groups is None:
        groups = np.zeros(n, dtype=np.int64)
    else:
        groups = np.asarray(groups)
        if groups.shape != (n,):
            raise ValueError("groups must have the same length as trace")
    out = np.empty(n, dtype=np.int64)
    stacks: dict[int, list] = {}
    for i in range(n):
        g = groups[i].item() if hasattr(groups[i], "item") else groups[i]
        line = trace[i]
        stack = stacks.setdefault(g, [])
        try:
            depth = stack.index(line)
        except ValueError:
            out[i] = COLD
            stack.insert(0, line)
        else:
            out[i] = depth
            del stack[depth]
            stack.insert(0, line)
    return out
