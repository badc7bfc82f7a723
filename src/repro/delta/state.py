"""Incremental steady-state reuse distances under a pattern delta.

:mod:`repro.reuse.periodic` prices a whole period from scratch: the
in-period distances cost one CDQ dominance pass over *every* access and
the wrap-around distances one more over the distinct lines.  A pattern
delta, though, perturbs the trace only at the edit sites — exactly the
locality argument of Akbudak et al.: sparsity edits move cache behaviour
*locally* unless the structure couples distant accesses.  This module
exploits that:

* the **in-period** distance of a surviving access can only change when
  an edit falls inside its reuse window ``(prev, i)``.  Inserts occupy
  integer positions of the edited trace; deletes leave half-position
  "junction" scars (:meth:`~repro.delta.delta.DeltaApplication.junctions`).
  Two ``searchsorted`` calls against the merged, sorted modification
  array find every dirtied window; each one is re-counted exactly with a
  single ``np.unique`` over its span.
* the **wrap-around** distances (one per distinct line) are recomputed
  wholesale — but on the distinct-line set, whose size is a small
  fraction of the trace, with the very same rank/suffix/dominance
  decomposition :func:`steady_state_reuse_distances` uses.  Sharing the
  formula (and :func:`~repro.reuse.cdq._dominance_counts` itself) is what
  makes the patched array *byte-identical* to a fresh pass, not merely
  close.

The work is bounded by a **budget**: the summed span of the dirtied
windows.  Banded and block-diagonal structures (paper classes 1 and 2)
reuse within short windows, so an edit dirties a handful of short spans
and the patch is hundreds of times cheaper than the full pass.  In the
random classes (3a/3b) a single edit can sit inside one long window per
distinct line — the budget overflows and the caller falls back to the
full pass, which is the conservative behaviour the ROADMAP asks for.
:class:`BudgetExceeded` carries the measured work so callers can report
*why* they fell back.  The work is measured from ``prev`` alone
(:func:`patch_prev`), so a caller holding only the pre-delta pattern
learns that a patch overflows for one ``compute_prev``, without the
steady-state pass a :class:`ReuseState` costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..reuse.cdq import _dominance_counts
from ..reuse.fenwick import compute_prev
from ..spmv.csr import CSRMatrix
from .delta import DeltaApplication

#: Bytes per x-vector element (float64) — fixed by the kernel.
X_ELEM_BYTES = 8


class BudgetExceeded(Exception):
    """The dirtied reuse windows outgrew the configured patch budget."""

    def __init__(self, work: int, budget: int) -> None:
        super().__init__(
            f"delta patch needs {work} window elements > budget {budget}"
        )
        self.work = work
        self.budget = budget


def x_lines(matrix: CSRMatrix, line_size: int) -> np.ndarray:
    """The x-vector cache-line trace of a single-thread Method B period.

    Identical to what :func:`repro.core.trace.x_only_trace` produces for
    one thread: x is the first array of the memory layout, so its base
    line is 0 and the line of column ``c`` is ``c * 8 // line_size`` —
    invariant under nnz changes, which is what lets a stored state price
    an edited pattern without rebuilding the layout.
    """
    return matrix.colidx.astype(np.int64) * X_ELEM_BYTES // line_size


def _wrap_distances(lines: np.ndarray, prev: np.ndarray,
                    rd: np.ndarray) -> None:
    """Overwrite ``rd`` at period-first positions with wrap distances.

    Implements RD(p) = #{L: first(L) < p} + #{L: last(L) > q}
    - #{L: first(L) < p and last(L) > q} over the distinct lines, exactly
    as the single-group branch of ``steady_state_reuse_distances``.
    """
    first_pos = np.flatnonzero(prev < 0)  # ascending: one per distinct line
    is_last = np.ones(lines.shape[0], dtype=bool)
    is_last[prev[prev >= 0]] = False
    last_pos = np.flatnonzero(is_last)  # ascending: one per distinct line
    d = first_pos.shape[0]
    if d == 0:
        return

    # align last positions with first positions by line id
    f_ord = np.argsort(lines[first_pos], kind="stable")
    l_ord = np.argsort(lines[last_pos], kind="stable")
    q = np.empty(d, dtype=np.int64)
    q[f_ord] = last_pos[l_ord]

    ranks = np.arange(d, dtype=np.int64)  # = #{first(L) < p} at first_pos[j]
    suffix_lasts = d - 1 - np.searchsorted(last_pos, q)
    q_rank = np.empty(d, dtype=np.int64)
    q_rank[np.argsort(q, kind="stable")] = ranks
    overlap = ranks - _dominance_counts(q_rank)
    rd[first_pos] = ranks + suffix_lasts - overlap


def _carried_prev(prev: np.ndarray, line_size: int,
                  application: DeltaApplication,
                  lines: np.ndarray) -> np.ndarray:
    """The edited trace's previous-occurrence array, incrementally.

    The old ``prev`` maps through the coordinate mapping unchanged for
    every line no edit touched (the mapping is monotone, so occurrence
    order is preserved).  Lines that gained an inserted access or lost
    a deleted one are re-chained from their occurrence lists, found
    with one ``np.isin`` pass — O(n log e) against the O(n log n)
    sort a fresh ``compute_prev`` costs.
    """
    npo = application.new_pos_of_old
    n_new = lines.shape[0]
    # carry: old prev composed with the coordinate mapping.  Kept
    # entries occupy exactly the non-inserted new slots in order, so
    # one boolean scatter places every carried value (fancy-index
    # chains re-gather 8-byte indices several times over and lose to
    # a fresh compute_prev).  A ``prev`` of -1 wraps the gather to
    # npo's last element; the mask store right after overwrites it.
    carried = npo[prev]
    carried[prev < 0] = -1
    new_prev = np.full(n_new, -1, dtype=np.int64)
    kept_slots = np.ones(n_new, dtype=bool)
    kept_slots[application.inserted_pos] = False
    new_prev[kept_slots] = carried[npo >= 0]

    touched = np.concatenate((
        lines[application.inserted_pos],
        application.deleted_cols.astype(np.int64)
        * X_ELEM_BYTES // line_size,
    ))
    if touched.shape[0]:
        pos = np.flatnonzero(np.isin(lines, np.unique(touched)))
        if pos.shape[0]:
            order = np.argsort(lines[pos], kind="stable")
            gpos = pos[order]
            glines = lines[pos][order]
            gprev = np.full(pos.shape[0], -1, dtype=np.int64)
            same = glines[1:] == glines[:-1]
            gprev[1:][same] = gpos[:-1][same]
            new_prev[gpos] = gprev
    return new_prev


class PrevPatch(NamedTuple):
    """A delta's effect on a trace's previous-occurrence array: the
    edited trace's ``lines`` and ``prev``, the positions whose reuse
    window an edit dirtied, and ``work``, the summed span of those
    windows that the budget bounds."""

    lines: np.ndarray
    prev: np.ndarray
    dirty: np.ndarray
    work: int


def patch_prev(prev: np.ndarray, line_size: int,
               application: DeltaApplication) -> PrevPatch:
    """Patch ``prev`` (``compute_prev`` of the pre-delta x-line trace)
    through an applied delta and find the windows it dirtied.

    Reads no reuse distance, so a caller holding only the pre-delta
    pattern learns the patch's ``work`` for the price of one
    ``compute_prev``, before any steady-state pass runs.  Raises
    ``ValueError`` when ``prev`` is not the trace the delta was applied to.
    """
    if prev.shape[0] != application.n_old:
        raise ValueError(
            f"state holds {prev.shape[0]} nonzeros, delta was applied to "
            f"{application.n_old}"
        )
    lines = x_lines(application.matrix, line_size)
    n_new = lines.shape[0]
    new_prev = _carried_prev(prev, line_size, application, lines)

    # every access whose reuse window [prev, i) brushes a modification
    # is dirty; so is every inserted non-first access (it has no
    # carried value at all).  The interval is left-closed so that an
    # access whose *new* predecessor is an inserted occurrence of its
    # own line is caught even though the insert sits exactly at
    # ``prev``.  F(pos) counts modifications below ``pos``: a mod at
    # coordinate x (integer insert or half-position junction) is
    # below pos iff floor(x) + 1 <= pos, so one bincount/cumsum
    # answers every window-overlap query in O(n).
    mods = np.concatenate((
        application.inserted_pos.astype(np.float64),
        application.junctions(),
    ))
    idx = np.floor(mods).astype(np.int64) + 1
    mods_below = np.cumsum(np.bincount(idx, minlength=n_new + 2))
    dirty_mask = (new_prev >= 0) & (
        mods_below[:n_new] > mods_below[np.maximum(new_prev, 0)]
    )
    inserted = application.inserted_pos
    dirty_mask[inserted[new_prev[inserted] >= 0]] = True
    dirty = np.flatnonzero(dirty_mask)
    work = int((dirty - new_prev[dirty] - 1).sum())
    return PrevPatch(lines, new_prev, dirty, work)


def full_reuse_state(matrix: CSRMatrix, line_size: int) -> "ReuseState":
    """Price a pattern from scratch (the cold-capture path)."""
    from ..reuse.periodic import steady_state_reuse_distances

    lines = x_lines(matrix, line_size)
    rd = steady_state_reuse_distances(lines)
    return ReuseState(nnz=int(matrix.nnz), line_size=int(line_size), rd=rd,
                      prev=compute_prev(lines))


@dataclass(frozen=True)
class ReuseState:
    """Steady-state x reuse distances of one pattern, ready for patching.

    ``rd`` is in program (nonzero) order and byte-identical to
    ``steady_state_reuse_distances(x_lines(matrix, line_size))`` — the
    invariant every :meth:`apply` preserves.  ``prev`` is the matching
    previous-occurrence array (``compute_prev`` of the same line trace).
    """

    nnz: int
    line_size: int
    rd: np.ndarray
    prev: np.ndarray

    def apply(self, application: DeltaApplication, budget: int) -> "ReuseState":
        """Patch the distances through an applied delta, exactly.

        :func:`patch_prev` patches ``prev`` and measures the dirtied
        windows from ``prev`` alone; only a patch that fits reads ``rd``.
        Raises :class:`BudgetExceeded` when the dirtied windows sum past
        ``budget`` elements; the state is unchanged in that case.
        """
        lines, prev, dirty, work = patch_prev(self.prev, self.line_size,
                                              application)
        if work > budget:
            raise BudgetExceeded(work, budget)

        n_new = lines.shape[0]
        rd = np.full(n_new, -1, dtype=np.int64)
        kept_slots = np.ones(n_new, dtype=bool)
        kept_slots[application.inserted_pos] = False
        rd[kept_slots] = self.rd[application.new_pos_of_old >= 0]
        for i in dirty.tolist():
            rd[i] = np.unique(lines[prev[i] + 1: i]).shape[0]

        _wrap_distances(lines, prev, rd)
        return ReuseState(nnz=n_new, line_size=self.line_size, rd=rd,
                          prev=prev)
