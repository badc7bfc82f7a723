"""Single-period steady-state reuse distances of a periodic trace.

Iterative SpMV replays the same reference trace every sweep, so the paper's
steady-state miss counts (Section 3.2) only need the reuse distances of one
*warmed-up* iteration.  The reproduction originally obtained them by
materializing two copies of the period (:func:`repro.core.trace.repeat_trace`)
and running the O(n log^2 n) stack pass over both, then discarding the first
half of the results.  This module computes the same distances exactly from a
single period:

* an access whose line occurred earlier in the period reuses *within* the
  period — its distance is the ordinary in-period reuse distance;
* a period-first access reuses *across* the period boundary: its previous
  occurrence is the line's last occurrence in the preceding period, and its
  reuse distance is the number of distinct lines in the wrap-around window
  (the previous period's suffix after that last occurrence, plus the current
  period's prefix before the access).

With ``q`` the last occurrence of the line and ``p`` its first occurrence,
the wrap-around distance decomposes by inclusion-exclusion over distinct
lines of the group::

    RD(p) = #{L : first(L) < p} + #{L : last(L) > q}
          - #{L : first(L) < p  and  last(L) > q}

The first term is the access's rank among period-first occurrences (a
cumulative sum), the second a suffix count of last occurrences (a cumulative
sum from the period's end), and the third a 2-D dominance count over the
*distinct lines only* — evaluated with the same batched CDQ machinery as the
in-period pass, but on a point set that is a small fraction of the trace.
The line itself satisfies neither ``first(L) < p`` nor ``last(L) > q``, so
it is excluded automatically.

The engine also supports a *different first period* (``first_lines`` /
``first_groups``): the modelled trace is then ``[first, period, period, ...]``
and the returned distances are those of the first ``period`` repetition.
The cache-hierarchy simulator needs this because its first SpMV iteration
carries prefetcher ramp references that later iterations do not; lines that
never occur in the first period are reported :data:`COLD`, exactly as in the
explicitly concatenated trace.

An optional *window floor* (see :mod:`repro.reuse.cdq`) gives in-period
references whose window is below it the placeholder distance 0 and
counts only the rest.  Period-first (wrap-around) and cold references
stay exact.  Method B's ladder tier 2, the cache simulator and Method A
pass floors (each derived from what it can be asked, see
:mod:`repro.reuse.cdq`); the miss curves and the delta engine stay
exact.
"""

from __future__ import annotations

import numpy as np

from .cdq import COLD, _dominance_counts, _warm_distances
from .fenwick import compute_prev, stable_order


def _group_sorted(lines: np.ndarray, groups: np.ndarray, span: int):
    """Stable group sort plus combined (group, line) keys."""
    order = stable_order(groups)
    g_sorted = groups[order]
    keys = g_sorted * np.int64(span) + lines[order]
    return order, g_sorted, keys


def _validate(name: str, lines: np.ndarray, groups: np.ndarray) -> None:
    if groups.shape != lines.shape:
        raise ValueError(f"{name} groups must have the same length as the lines")
    if lines.shape[0]:
        if lines.min() < 0:
            raise ValueError("line identifiers must be non-negative")
        if groups.min() < 0:
            raise ValueError("group labels must be non-negative")


def steady_state_reuse_distances(
    lines: np.ndarray,
    groups: np.ndarray | None = None,
    first_lines: np.ndarray | None = None,
    first_groups: np.ndarray | None = None,
    window_floor: int | None = None,
) -> np.ndarray:
    """Exact steady-state reuse distances of one period of a periodic trace.

    Parameters
    ----------
    lines:
        Cache-line identifiers of one period, in program order.
    groups:
        Optional per-access group label (cache partitions, private caches,
        CMG segments, set-associative sets — any composition encoded as one
        integer).  Accesses only interact within their group.
    first_lines, first_groups:
        Optional explicit *first* period when it differs from the steady
        period (e.g. prefetcher warm-up ramps).  The modelled trace is
        ``[first, period, period, ...]``; by default the first period is the
        period itself.
    window_floor:
        Optional window floor: in-period references whose window is below
        it get the placeholder distance 0 instead of their exact distance.

    Returns
    -------
    ``int64`` array aligned with ``lines`` holding the reuse distances of the
    period directly following the first period — element for element what
    ``reuse_distances(concat([first, period]), ...)`` reports for the second
    half, without ever materializing the concatenation.  Lines absent from
    the first period are :data:`COLD`.
    """
    lines = np.ascontiguousarray(lines, dtype=np.int64)
    n = lines.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if groups is None:
        groups = np.zeros(n, dtype=np.int64)
    else:
        groups = np.ascontiguousarray(groups, dtype=np.int64)
    _validate("period", lines, groups)

    separate_first = first_lines is not None
    if separate_first:
        first_lines = np.ascontiguousarray(first_lines, dtype=np.int64)
        m = first_lines.shape[0]
        if first_groups is None:
            first_groups = np.zeros(m, dtype=np.int64)
        else:
            first_groups = np.ascontiguousarray(first_groups, dtype=np.int64)
        _validate("first-period", first_lines, first_groups)
    else:
        first_lines, first_groups = lines, groups
        m = n

    span = int(lines.max()) + 1
    if m:
        span = max(span, int(first_lines.max()) + 1)
    gmax = int(groups.max())
    if m:
        gmax = max(gmax, int(first_groups.max()))
    if gmax and gmax > (2**62) // span:
        raise ValueError("group/line key space too large to combine")

    # ---- in-period pass: ordinary reuse distances of non-first accesses
    # (large temporaries are released with `del` as soon as they are no
    # longer needed: the halved peak footprint vs. the doubled trace is one
    # of the acceptance criteria of this engine)
    order, g_sorted, keys = _group_sorted(lines, groups, span)
    if not separate_first:
        first_groups = None  # alias of groups; drop it so the del frees it
    del groups
    prev = compute_prev(keys)
    rd = _warm_distances(prev, window_floor)
    is_first = prev < 0

    # last occurrence of each distinct (group, line) key in the first
    # period: exactly the positions no other access points back to, so the
    # prev pointers identify them without any trace-length sort
    if separate_first:
        _, fg_sorted, fkeys = _group_sorted(first_lines, first_groups, span)
        del first_groups
        fprev = compute_prev(fkeys)
    else:
        fg_sorted, fkeys = g_sorted, keys
        fprev = prev
    is_last_f = np.ones(m, dtype=bool)
    is_last_f[fprev[fprev >= 0]] = False
    del fprev, prev

    # ---- wrap-around distances of the period-first accesses
    # A: rank among the group's period-first occurrences (= #{first(L) < p})
    firsts_before = np.cumsum(is_first) - is_first
    new_group = np.ones(n, dtype=bool)
    new_group[1:] = g_sorted[1:] != g_sorted[:-1]
    seg_starts = np.flatnonzero(new_group)
    seg_id = np.cumsum(new_group) - 1
    rank_first = firsts_before - firsts_before[seg_starts][seg_id]
    del firsts_before, new_group, seg_starts, seg_id

    # one entry per distinct key: key-sorted lookup table of last positions
    last_positions = np.flatnonzero(is_last_f)
    last_keys = fkeys[last_positions]
    kord = stable_order(last_keys)
    uniq_keys = last_keys[kord]
    last_pos = last_positions[kord]
    del last_positions, last_keys, kord

    # B: suffix count of last occurrences after q within the group
    lasts_upto = np.cumsum(is_last_f)
    del is_last_f

    query_pos = np.flatnonzero(is_first)
    query_keys = keys[query_pos]
    del is_first, keys, fkeys
    idx = np.searchsorted(uniq_keys, query_keys)
    present = idx < uniq_keys.shape[0]
    present[present] = uniq_keys[idx[present]] == query_keys[present]
    del uniq_keys, query_keys

    out_sorted = rd
    out_sorted[query_pos[~present]] = COLD

    hit_pos = query_pos[present]
    if hit_pos.size:
        q = last_pos[idx[present]]
        group_end = np.searchsorted(fg_sorted, g_sorted[hit_pos], side="right")
        suffix_lasts = lasts_upto[group_end - 1] - lasts_upto[q]
        # C: distinct lines with first(L) < p and last(L) > q — a dominance
        # count over the present period-first occurrences.  Both the query
        # order (group-sorted period position) and the values (first-period
        # coordinates) are group-monotone, so the cross-group contributions
        # of the global CDQ count cancel exactly against the global index.
        ranks = np.arange(hit_pos.shape[0], dtype=np.int64)
        # rank-compress q: _dominance_counts requires values bounded by the
        # array length; the q positions are distinct, so ranks preserve counts
        q_rank = np.empty(hit_pos.shape[0], dtype=np.int64)
        q_rank[np.argsort(q)] = ranks
        overlap = ranks - _dominance_counts(q_rank)
        out_sorted[hit_pos] = rank_first[hit_pos] + suffix_lasts - overlap

    out = np.empty(n, dtype=np.int64)
    out[order] = out_sorted
    return out
