"""Edge-delta representation for dynamic sparse matrices.

A :class:`MatrixDelta` is one batch of sparsity-pattern edits — edge
*inserts* (an insert's optional value is checked and dropped: inserted
entries hold 1) and edge *deletes* — in canonical form: each list sorted
by ``(row, col)``, no duplicates, no overlap between the two lists.
Canonicalization makes :meth:`MatrixDelta.to_dict` stable, which is what
lets the service derive deterministic chained cache keys from a base key
plus its accumulated deltas.

:meth:`MatrixDelta.apply` patches a :class:`~repro.spmv.csr.CSRMatrix`
*and* reports the coordinate bookkeeping the incremental reuse engine
needs (:class:`DeltaApplication`): where every surviving nonzero landed in
the edited pattern, where the inserted ones went, and which old positions
disappeared.  The nonzero order of a CSR matrix is exactly the program
order of Method B's x-vector access trace, so these mappings are, element
for element, trace-coordinate mappings.

Validation is strict by design: inserting an edge that already exists, or
deleting one that does not, raises :class:`DeltaError` instead of being
silently coalesced — a dynamic-graph client that disagrees with the
service about the current pattern must find out immediately, not after
its cached profiles have drifted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..spmv.csr import CSRMatrix

#: Hard cap on edits per batch — bounds request size and patch work.
MAX_EDITS = 100_000


class DeltaError(ValueError):
    """A malformed delta or one inconsistent with the matrix pattern."""


def _edge_array(entries: object, label: str, max_len: int):
    """Validate a JSON edit list into (rows, cols) arrays; entries of
    ``max_len`` 3 may carry a numeric third element, which is dropped."""
    if not isinstance(entries, (list, tuple)):
        raise DeltaError(f"{label} must be a list of [row, col] pairs")
    rows = np.empty(len(entries), dtype=np.int64)
    cols = np.empty(len(entries), dtype=np.int64)
    for i, entry in enumerate(entries):
        if not isinstance(entry, (list, tuple)) or not 2 <= len(entry) <= max_len:
            raise DeltaError(f"{label}[{i}] must be [row, col]"
                             + (" or [row, col, value]" if max_len == 3 else ""))
        try:
            rows[i] = int(entry[0])
            cols[i] = int(entry[1])
            if len(entry) == 3:
                float(entry[2])
        except (TypeError, ValueError, OverflowError) as exc:
            raise DeltaError(f"{label}[{i}] is not numeric: {exc}") from None
    return rows, cols


@dataclass(frozen=True)
class MatrixDelta:
    """One canonical batch of edge inserts and deletes."""

    insert_rows: np.ndarray
    insert_cols: np.ndarray
    delete_rows: np.ndarray
    delete_cols: np.ndarray

    @property
    def num_inserts(self) -> int:
        return int(self.insert_rows.shape[0])

    @property
    def num_deletes(self) -> int:
        return int(self.delete_rows.shape[0])

    @property
    def num_edits(self) -> int:
        return self.num_inserts + self.num_deletes

    @classmethod
    def from_dict(cls, payload: object) -> "MatrixDelta":
        """Parse and canonicalize ``{"inserts": [...], "deletes": [...]}``."""
        if not isinstance(payload, dict):
            raise DeltaError("delta must be an object")
        unknown = set(payload) - {"inserts", "deletes"}
        if unknown:
            raise DeltaError(f"unknown delta fields: {sorted(unknown)}")
        ins_r, ins_c = _edge_array(payload.get("inserts", []), "inserts", 3)
        del_r, del_c = _edge_array(payload.get("deletes", []), "deletes", 2)
        if ins_r.shape[0] + del_r.shape[0] == 0:
            raise DeltaError("delta must carry at least one insert or delete")
        if ins_r.shape[0] + del_r.shape[0] > MAX_EDITS:
            raise DeltaError(f"delta exceeds {MAX_EDITS} edits")

        order = np.lexsort((ins_c, ins_r))
        ins_r, ins_c = ins_r[order], ins_c[order]
        order = np.lexsort((del_c, del_r))
        del_r, del_c = del_r[order], del_c[order]

        def _dup(rows: np.ndarray, cols: np.ndarray) -> bool:
            if rows.shape[0] < 2:
                return False
            same = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
            return bool(same.any())

        if _dup(ins_r, ins_c):
            raise DeltaError("duplicate edge in inserts")
        if _dup(del_r, del_c):
            raise DeltaError("duplicate edge in deletes")
        if ins_r.shape[0] and del_r.shape[0]:
            ins_keys = ins_r * (ins_c.max() + del_c.max() + 2) + ins_c
            del_keys = del_r * (ins_c.max() + del_c.max() + 2) + del_c
            if np.intersect1d(ins_keys, del_keys).shape[0]:
                raise DeltaError("an edge appears in both inserts and deletes")
        return cls(ins_r, ins_c, del_r, del_c)

    def to_dict(self) -> dict:
        """Canonical JSON form (sorted ``[row, col]`` lists)."""
        return {
            "inserts": [
                [int(r), int(c)]
                for r, c in zip(self.insert_rows, self.insert_cols)
            ],
            "deletes": [
                [int(r), int(c)]
                for r, c in zip(self.delete_rows, self.delete_cols)
            ],
        }

    def apply(self, matrix: CSRMatrix) -> "DeltaApplication":
        """Patch ``matrix`` and report the nonzero-coordinate mappings.

        Requires the matrix pattern in canonical row-major order (sorted
        column indices within each row, no duplicate edges) — which is
        what the generators, ``CSRMatrix.from_coo`` and previous delta
        applications all produce.  Raises :class:`DeltaError` when an
        insert already exists, a delete is absent, an edit is out of
        bounds, or the pattern is not canonical.
        """
        num_rows, num_cols = matrix.num_rows, matrix.num_cols
        for rows, cols, label in (
            (self.insert_rows, self.insert_cols, "insert"),
            (self.delete_rows, self.delete_cols, "delete"),
        ):
            if rows.shape[0] and (
                rows.min() < 0 or rows.max() >= num_rows
                or cols.min() < 0 or cols.max() >= num_cols
            ):
                raise DeltaError(f"{label} edge out of bounds for "
                                 f"{num_rows}x{num_cols} matrix")

        rowptr = matrix.rowptr
        colidx = matrix.colidx
        nnz = int(colidx.shape[0])

        # canonical row-major order == strictly increasing columns inside
        # every row; checking per-row diffs keeps the pass on int32 and
        # avoids materializing an O(nnz) int64 global-key array (the key
        # arrays are what made large applies allocation-bound)
        if nnz > 1:
            increasing = colidx[1:] > colidx[:-1]
            starts = rowptr[1:-1]
            starts = starts[(starts > 0) & (starts < nnz)]
            increasing[starts - 1] = True
            if not increasing.all():
                raise DeltaError("matrix pattern is not in canonical "
                                 "row-major order (sort or deduplicate it "
                                 "first)")

        # locate every edit with a binary search inside its row slice; the
        # batch is bounded by MAX_EDITS so this loop is cheap next to the
        # O(nnz) array passes below.  (row, col)-sorted edits visit flat
        # positions in ascending order, so del_pos comes out strictly
        # increasing and ins_pos non-decreasing (two inserts may target
        # the same gap; their column order breaks the tie).
        del_pos = np.empty(self.num_deletes, dtype=np.int64)
        for i in range(self.num_deletes):
            r = int(self.delete_rows[i])
            c = int(self.delete_cols[i])
            lo, hi = int(rowptr[r]), int(rowptr[r + 1])
            p = lo + int(np.searchsorted(colidx[lo:hi], c))
            if p == hi or colidx[p] != c:
                raise DeltaError(f"delete of absent edge ({r}, {c})")
            del_pos[i] = p
        ins_pos = np.empty(self.num_inserts, dtype=np.int64)
        for i in range(self.num_inserts):
            r = int(self.insert_rows[i])
            c = int(self.insert_cols[i])
            lo, hi = int(rowptr[r]), int(rowptr[r + 1])
            p = lo + int(np.searchsorted(colidx[lo:hi], c))
            if p < hi and colidx[p] == c:
                raise DeltaError(f"insert of existing edge ({r}, {c})")
            ins_pos[i] = p

        kept_mask = np.ones(nnz, dtype=bool)
        kept_mask[del_pos] = False

        # new position of each surviving nonzero: its rank among the kept
        # entries plus the number of inserts landing at or before it — a
        # step function with one step per insert, built with np.repeat
        new_pos_of_old = np.cumsum(kept_mask, dtype=np.int64)
        new_pos_of_old -= 1
        if self.num_inserts:
            bounds = np.concatenate((
                np.zeros(1, dtype=np.int64), ins_pos,
                np.asarray([nnz], dtype=np.int64),
            ))
            new_pos_of_old += np.repeat(
                np.arange(self.num_inserts + 1, dtype=np.int64),
                np.diff(bounds),
            )
        new_pos_of_old[del_pos] = -1

        # new position of each insert: the kept entries strictly below its
        # slot plus its own rank among the inserts
        inserted_new = (
            ins_pos - np.searchsorted(del_pos, ins_pos)
            + np.arange(self.num_inserts, dtype=np.int64)
        )

        n_new = nnz - self.num_deletes + self.num_inserts
        new_colidx = np.empty(n_new, dtype=np.int32)
        new_values = np.ones(n_new, dtype=np.float64)  # inserts hold 1
        kept_slots = np.ones(n_new, dtype=bool)
        kept_slots[inserted_new] = False
        new_colidx[kept_slots] = colidx[kept_mask]
        new_values[kept_slots] = matrix.values[kept_mask]
        new_colidx[inserted_new] = self.insert_cols

        shift = np.zeros(num_rows + 1, dtype=np.int64)
        if self.num_inserts:
            shift[1:] += np.bincount(self.insert_rows, minlength=num_rows)
        if self.num_deletes:
            shift[1:] -= np.bincount(self.delete_rows, minlength=num_rows)
        new_rowptr = np.asarray(rowptr, dtype=np.int64) + np.cumsum(shift)

        patched = CSRMatrix(
            num_rows, num_cols, new_rowptr, new_colidx, new_values,
            name=matrix.name,
        )
        return DeltaApplication(
            matrix=patched,
            new_pos_of_old=new_pos_of_old,
            inserted_pos=inserted_new,
            deleted_pos=del_pos,
            deleted_cols=self.delete_cols,
            n_old=nnz,
        )


@dataclass(frozen=True)
class DeltaApplication:
    """An applied delta: the patched matrix plus coordinate mappings.

    ``new_pos_of_old[k]`` is the position of the old k-th nonzero in the
    patched pattern, or ``-1`` if the delta deleted it.  ``inserted_pos``
    (sorted) are the new positions of the inserted nonzeros and
    ``deleted_pos`` (sorted) the old positions of the deleted ones;
    ``deleted_cols`` are the column indices of the deleted edges, aligned
    with ``deleted_pos`` — the incremental engine needs them to know which
    x-vector cache lines lost an access.
    """

    matrix: CSRMatrix
    new_pos_of_old: np.ndarray
    inserted_pos: np.ndarray
    deleted_pos: np.ndarray
    deleted_cols: np.ndarray
    n_old: int

    @property
    def n_new(self) -> int:
        return int(self.matrix.nnz)

    def junctions(self) -> np.ndarray:
        """Deletion scars in *new* trace coordinates, as half-positions.

        A deleted access leaves no position of its own in the edited
        trace; what remains observable is the junction between its kept
        neighbours.  Each junction is reported as ``p - 0.5`` where ``p``
        is the new position of the first surviving nonzero after the
        deleted one (``n_new - 0.5`` for deletions past the end) — a
        coordinate strictly between two integer access positions, so it
        can be merged with insert positions into one sorted modification
        array for window-overlap queries.
        """
        if self.deleted_pos.shape[0] == 0:
            return np.empty(0, dtype=np.float64)
        kept_old = np.flatnonzero(self.new_pos_of_old >= 0)
        nxt = np.searchsorted(kept_old, self.deleted_pos)
        after = np.where(
            nxt < kept_old.shape[0],
            self.new_pos_of_old[kept_old[np.minimum(nxt, kept_old.shape[0] - 1)]]
            if kept_old.shape[0]
            else np.int64(0),
            np.int64(self.n_new),
        )
        return np.unique(after.astype(np.float64) - 0.5)
