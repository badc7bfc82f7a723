"""Previous-occurrence pointers, the first step of every stack pass.

Every exact engine (:mod:`repro.reuse.cdq`, :mod:`repro.reuse.periodic`,
the delta patcher) reduces reuse distance to a counting problem over
``prev[i]``, the index of the previous access to the same location.
"""

from __future__ import annotations

import numpy as np


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
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    same = sorted_keys[1:] == sorted_keys[:-1]
    prev[order[1:][same]] = order[:-1][same]
    return prev
