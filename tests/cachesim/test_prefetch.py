"""Stream-prefetcher trace augmentation."""

import numpy as np
import pytest

from repro.cachesim import STREAMED_ARRAYS, inject_prefetches
from repro.core import ARRAY_ID, MemoryLayout, repeat_trace, spmv_trace
from repro.matrices import banded
from repro.spmv import static_schedule


def build_trace(num_threads=1):
    matrix = banded(256, 8, 8, seed=0)
    layout = MemoryLayout.for_matrix(matrix, 256)
    sched = static_schedule(matrix, num_threads)
    traces = spmv_trace(matrix, layout, sched)
    from repro.parallel import interleave

    return matrix, interleave(traces)


def test_distance_zero_is_identity():
    _, trace = build_trace()
    assert inject_prefetches(trace, 0) is trace


def test_negative_distance_rejected():
    _, trace = build_trace()
    with pytest.raises(ValueError):
        inject_prefetches(trace, -1)


def test_injected_refs_are_tagged_and_demand_preserved():
    _, trace = build_trace()
    augmented = inject_prefetches(trace, 4)
    demand = augmented.select(~augmented.is_prefetch)
    np.testing.assert_array_equal(demand.lines, trace.lines)
    np.testing.assert_array_equal(demand.arrays, trace.arrays)
    assert augmented.is_prefetch.sum() > 0


def test_prefetches_only_on_streamed_arrays():
    _, trace = build_trace()
    augmented = inject_prefetches(trace, 4)
    stream_ids = {ARRAY_ID[a] for a in STREAMED_ARRAYS}
    prefetched = set(np.unique(augmented.arrays[augmented.is_prefetch]).tolist())
    assert prefetched <= stream_ids
    assert ARRAY_ID["x"] not in prefetched


def test_prefetch_stays_within_array_extent():
    _, trace = build_trace()
    augmented = inject_prefetches(trace, 8)
    layout = trace.layout
    for aid in np.unique(augmented.arrays[augmented.is_prefetch]):
        sel = augmented.is_prefetch & (augmented.arrays == aid)
        lines = augmented.lines[sel]
        assert lines.min() >= layout.base[aid]
        assert lines.max() < layout.base[aid] + layout.num_lines[aid]


def test_prefetch_precedes_demand_use():
    # with distance d, the demand access to a steady-state stream line must
    # find a prefetch for that line earlier in the trace
    _, trace = build_trace()
    d = 4
    augmented = inject_prefetches(trace, d)
    values_id = ARRAY_ID["values"]
    sel = augmented.arrays == values_id
    lines = augmented.lines[sel]
    is_pf = augmented.is_prefetch[sel]
    first_pf: dict[int, int] = {}
    first_demand: dict[int, int] = {}
    for pos, (line, pf) in enumerate(zip(lines.tolist(), is_pf.tolist())):
        target = first_pf if pf else first_demand
        target.setdefault(line, pos)
    covered = [l for l in first_demand if l in first_pf]
    assert covered, "no prefetched lines found"
    # every line beyond the ramp is prefetched before its demand use
    late = [l for l in covered if first_pf[l] > first_demand[l]]
    assert not late


def test_per_thread_ramps():
    _, merged = build_trace(num_threads=4)
    augmented = inject_prefetches(merged, 3)
    # each thread's stream ramps independently: at least one prefetch per
    # thread per streamed array that actually appears
    for t in range(4):
        sel = augmented.is_prefetch & (augmented.threads == t)
        assert sel.sum() > 0


def test_iteration_tags_carried_to_injections():
    _, trace = build_trace()
    repeated = repeat_trace(trace, 2)
    augmented = inject_prefetches(repeated, 2)
    pf = augmented.is_prefetch
    assert set(np.unique(augmented.iteration[pf]).tolist()) == {0, 1}
