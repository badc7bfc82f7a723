"""Previous-occurrence pointers, the first step of every stack pass.

Every exact engine (:mod:`repro.reuse.cdq`, :mod:`repro.reuse.periodic`,
the delta patcher) reduces reuse distance to a counting problem over
``prev[i]``, the index of the previous access to the same location.

The stable sorts behind it (and behind every group sort of a stack pass)
go through :func:`stable_order`, which radix-sorts keys whose range fits
16 or 32 bits.
"""

from __future__ import annotations

import numpy as np


def stable_order(keys: np.ndarray) -> np.ndarray:
    """Exactly ``np.argsort(keys, kind="stable")`` of an integer array.

    NumPy radix-sorts 16-bit keys in O(n), but falls back to a
    comparison sort for wider ones.  Keys whose range ``max - min`` fits
    16 bits are therefore ordered by one ``uint16`` stable pass over the
    offset keys, and keys whose range fits 32 bits by two (low half,
    then high half: a stable sort by the high half of an array already
    stably ordered by the low half orders it by the whole key, ties kept
    in input order).  Wider ranges use ``argsort`` itself.
    """
    keys = np.asarray(keys)
    if keys.shape[0] < 2:
        return np.argsort(keys, kind="stable")
    low = int(keys.min())
    span = int(keys.max()) - low
    if span >= 2**32:
        return np.argsort(keys, kind="stable")
    offset = np.asarray(keys, dtype=np.int64) - low
    # the uint16 casts keep the low 16 bits
    order = np.argsort(offset.astype(np.uint16), kind="stable")
    if span < 2**16:
        return order
    high = (offset >> 16).astype(np.uint16)
    return order[np.argsort(high[order], kind="stable")]


def compute_prev(keys: np.ndarray) -> np.ndarray:
    """Previous-occurrence index of each element (-1 for first), vectorized.

    ``keys`` may be any integer identity (line id, or a combined
    group-and-line key); two accesses are "the same location" iff their keys
    are equal.
    """
    keys = np.asarray(keys)
    n = keys.shape[0]
    prev = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return prev
    order = stable_order(keys)
    sorted_keys = keys[order]
    same = sorted_keys[1:] == sorted_keys[:-1]
    prev[order[1:][same]] = order[:-1][same]
    return prev
