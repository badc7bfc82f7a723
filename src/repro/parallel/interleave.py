"""Interleaving of per-thread memory traces for shared-cache modelling.

The cache behaviour of a shared cache depends on how the threads' reference
streams interleave (concurrent reuse distance, Schuff et al.).  The paper
collates per-thread accesses through a queue-based MCS lock, whose FIFO
fairness yields a near round-robin global order; every model merges its
threads' traces in that one order.
"""

from __future__ import annotations

import numpy as np

from ..core.trace import MemoryTrace, concat_traces


def interleave(traces: list[MemoryTrace]) -> MemoryTrace:
    """Merge per-thread traces into one shared-cache reference order.

    FIFO round-robin at single-reference granularity — the fair
    interleaving produced by MCS-lock collation (the paper's choice): the
    ``k``-th references of all threads come before any ``k+1``-th one, in
    thread order.
    """
    merged = concat_traces(traces)
    if len(merged) == 0:
        return merged
    position = np.concatenate(
        [np.arange(len(t), dtype=np.int64) for t in traces]
    )
    order = np.lexsort((merged.threads.astype(np.int64), position))
    return merged.reorder(order)
