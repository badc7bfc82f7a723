"""Method A priced by a full mask sweep over exact reuse distances.

:class:`repro.core.MethodA` runs window-floored stack passes, condenses
each into per-array :class:`repro.reuse.ReuseProfile` buckets and answers
every policy with O(log n) lookups.  These functions are the original
O(n)-per-policy evaluation: an exact (unfloored) pass over the model's
period with the same grouping, then one boolean miss mask per query,
counted per array.
"""

from __future__ import annotations

import numpy as np

from repro.core import MethodA, MissPrediction
from repro.reuse import COLD, reuse_distances, steady_state_reuse_distances
from repro.spmv.sector_policy import ARRAYS, SectorPolicy


def exact_distances(model: MethodA, level: str, split: bool) -> np.ndarray:
    """Exact distances of the model's period with one LRU stack per CMG
    (``level="l2"``) or per thread (``"l1"``), split by sector when
    ``split``: steady state from the second iteration on, cold otherwise."""
    trace = model.trace
    if level == "l2":
        groups = (trace.threads // model.machine.cores_per_cmg).astype(np.int64)
    else:
        groups = trace.threads.astype(np.int64)
    if split:
        groups = groups * 2 + model._sectors
    if model.periodic:
        return steady_state_reuse_distances(trace.lines, groups)
    return reuse_distances(trace.lines, groups)


def masked_prediction(
    rd: np.ndarray,
    capacity,
    arrays: np.ndarray,
    policy: SectorPolicy,
    window: np.ndarray | None = None,
) -> MissPrediction:
    """Misses of the accesses in ``window`` whose distance reaches
    ``capacity`` (a scalar or a per-access array), broken down by array."""
    miss = rd >= capacity
    if window is not None:
        miss &= window
    per_array = {
        name: int(np.count_nonzero(miss & (arrays == aid)))
        for aid, name in enumerate(ARRAYS)
    }
    return MissPrediction(
        l2_misses=int(miss.sum()),
        per_array={k: v for k, v in per_array.items() if v},
        method="A",
        policy=policy,
    )


def predict_masked(model: MethodA, policy: SectorPolicy) -> MissPrediction:
    """:meth:`MethodA.predict` by a mask sweep."""
    policy.validate(model.machine)
    n0, n1 = model.machine.l2.partition_lines(policy.l2_sector1_ways)
    rd = exact_distances(model, "l2", split=policy.l2_enabled)
    if policy.l2_enabled:
        capacity = np.where(model._sectors == 1, n1, n0)
    else:
        capacity = np.int64(model.machine.l2.capacity_lines)
    return masked_prediction(rd, capacity, model.trace.arrays, policy)


def predict_l1_masked(model: MethodA, policy: SectorPolicy) -> MissPrediction:
    """:meth:`MethodA.predict_l1` by a mask sweep."""
    policy.validate(model.machine)
    n0, n1 = model.machine.l1.partition_lines(policy.l1_sector1_ways)
    rd = exact_distances(model, "l1", split=policy.l1_enabled)
    if policy.l1_enabled:
        capacity = np.where(model._sectors == 1, n1, n0)
    else:
        capacity = np.int64(model.machine.l1.capacity_lines)
    return masked_prediction(rd, capacity, model.trace.arrays, policy)


def cold_misses_masked(model: MethodA) -> int:
    """:meth:`MethodA.cold_misses` as the COLD markers of a plain pass:
    a period *is* one first iteration."""
    rd = reuse_distances(model.trace.lines, model._cmgs)
    return int(np.count_nonzero(rd >= COLD))
