"""Method A priced by a full mask sweep over the reuse distances.

:class:`repro.core.MethodA` condenses each stack pass into per-array
:class:`repro.reuse.ReuseProfile` buckets and answers every policy with
O(log n) lookups.  These functions are the original O(n)-per-policy
evaluation over the same ``_rd_*`` arrays: one boolean miss mask per
query, counted per array.
"""

from __future__ import annotations

import numpy as np

from repro.core import MethodA, MissPrediction
from repro.reuse import COLD, reuse_distances
from repro.spmv.sector_policy import ARRAYS, SectorPolicy


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
    if policy.l2_enabled:
        rd = model._rd_partitioned
        capacity = np.where(model._sectors == 1, n1, n0)
    else:
        rd = model._rd_shared
        capacity = np.int64(model.machine.l2.capacity_lines)
    return masked_prediction(rd, capacity, model.trace.arrays, policy)


def predict_l1_masked(model: MethodA, policy: SectorPolicy) -> MissPrediction:
    """:meth:`MethodA.predict_l1` by a mask sweep."""
    policy.validate(model.machine)
    n0, n1 = model.machine.l1.partition_lines(policy.l1_sector1_ways)
    if policy.l1_enabled:
        rd = model._rd_l1_partitioned
        capacity = np.where(model._sectors == 1, n1, n0)
    else:
        rd = model._rd_l1_shared
        capacity = np.int64(model.machine.l1.capacity_lines)
    return masked_prediction(rd, capacity, model.trace.arrays, policy)


def cold_misses_masked(model: MethodA) -> int:
    """:meth:`MethodA.cold_misses` as the COLD markers of a plain pass:
    a period *is* one first iteration."""
    rd = reuse_distances(model.trace.lines, model._cmgs)
    return int(np.count_nonzero(rd >= COLD))
