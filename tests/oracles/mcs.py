"""MCS queue lock (Mellor-Crummey & Scott) and FIFO trace collation.

The paper records multi-threaded traces by ordering access submissions
through an MCS lock because it guarantees starvation freedom and FIFO
fairness.  This module provides a discrete-event emulation of the lock and a
collator built on it; the collator's output is the fair round-robin order
that :func:`repro.parallel.interleave` produces directly, which
``tests/parallel/test_interleave.py`` asserts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np


@dataclass
class _QNode:
    """One waiter's queue node (the per-thread record of the real lock)."""

    thread: int
    locked: bool = True
    next: "_QNode | None" = None


@dataclass
class MCSLock:
    """Discrete-event MCS lock: explicit queue with FIFO handoff.

    The shared state of the real algorithm is a single tail pointer; each
    waiter spins on its own node.  The emulation keeps the same structure —
    ``acquire`` swings the tail and links the node, ``release`` hands the
    lock to ``next`` — so fairness properties can be asserted in tests.
    """

    _tail: _QNode | None = None
    _holder: _QNode | None = None
    #: acquisition order, for fairness assertions
    history: list[int] = field(default_factory=list)

    def acquire(self, thread: int) -> _QNode:
        """Enqueue a thread; returns its node.  The lock may not be held yet."""
        node = _QNode(thread)
        predecessor, self._tail = self._tail, node
        if predecessor is None:
            node.locked = False
            self._holder = node
            self.history.append(thread)
        else:
            predecessor.next = node
        return node

    def holds(self, node: _QNode) -> bool:
        """True once the node has been granted the lock."""
        return not node.locked

    def release(self, node: _QNode) -> None:
        """Release the lock, handing it FIFO to the successor if any."""
        if self._holder is not node:
            raise RuntimeError("release by a thread that does not hold the lock")
        successor = node.next
        if successor is None:
            if self._tail is node:
                self._tail = None
            self._holder = None
            return
        successor.locked = False
        self._holder = successor
        self.history.append(successor.thread)


def collate_fifo(streams: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Collate per-thread item streams through an emulated MCS lock.

    Every thread repeatedly acquires the lock, appends its next item to the
    shared buffer, and releases.  All threads contend continuously, so the
    FIFO lock serves them round-robin until streams drain.

    Returns the collated items and the thread id of each item.
    """
    lock = MCSLock()
    pending = deque(
        (t, deque(np.asarray(s).tolist())) for t, s in enumerate(streams) if len(s)
    )
    items: list = []
    owners: list[int] = []
    # all live threads enqueue once, then re-enqueue after each grant
    nodes = deque()
    for t, _ in pending:
        nodes.append(lock.acquire(t))
    by_thread = {t: s for t, s in pending}
    while nodes:
        node = nodes.popleft()
        assert lock.holds(node), "FIFO order violated"
        stream = by_thread[node.thread]
        items.append(stream.popleft())
        owners.append(node.thread)
        if stream:
            nodes.append(lock.acquire(node.thread))
        lock.release(node)
    return np.asarray(items), np.asarray(owners, dtype=np.int64)
