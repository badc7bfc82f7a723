"""Stored-task registry: the base records ``POST /delta`` patches against.

A delta request references an earlier request by its cache key; to
derive the edited task the daemon must recover the *canonical task* that
key was computed from.  The registry records it at request time — a
bounded in-memory map fronting optional ``<key>.task.json`` files next
to the result cache — and hands back what it holds (an unreadable file
is absent: 404).

Memory is trusted, disk is not, as in the result cache's two tiers.  A
task enters the memory map only when this process keyed it (the daemon's
:meth:`put` after :func:`~repro.service.protocol.request_key`) or
revalidated it.  A record read back from disk is handed out but never
held: the daemon's ``/delta`` handler recomputes its key and answers 409
when it no longer matches (disk tampering, a format drift across
versions) rather than silently patching the wrong base, and holds it
(:meth:`hold`) only once it matches.  A record that failed is read and
refused again on every request.

The daemon stores a task's :func:`~repro.service.protocol.keyed_form`
(no per-request flags), so the stored bytes reproduce the key exactly
and registering the same request twice is idempotent.  A memory entry
of a delta chain also holds the chain's *root JSON* (``canonical_json``
of the base matrix the chain started from): every step of one chain
shares that one string, so keying and naming the next step splices it
instead of encoding the matrix again.  A plain base holds none — most
inline requests never take a delta, and their encodings would add up —
so the first step off it encodes the base once.

Disk entries use the ``.task.json`` suffix — distinct from the result
entries' ``.<endpoint>.json`` — and are subject to the same GC sweep as
results: an expired base simply 404s and the client re-submits the full
matrix once.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from pathlib import Path
from typing import NamedTuple


class Stored(NamedTuple):
    """One registry lookup: the stored task, the root JSON its chain
    shares (``None`` for a plain base and for a disk read), and whether
    it came from the trusted memory map (``False``: read back from disk,
    to be revalidated before use)."""

    task: dict
    root_json: str | None
    trusted: bool


class TaskRegistry:
    """Bounded memory map plus optional disk persistence of stored tasks."""

    def __init__(self, cache_dir: str | Path | None,
                 capacity: int = 4096) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.capacity = capacity
        self._memory: OrderedDict[str, tuple[dict, str | None]] = OrderedDict()

    def _path(self, key: str) -> Path | None:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{key}.task.json"

    def put(self, key: str, task: dict, record: str,
            root_json: str | None = None) -> None:
        """Record a keyed-form task under its request key (idempotent).

        ``record`` is ``canonical_json(task)``, the bytes persisted to
        disk: ``request_key(task, with_record=True)`` already encoded
        exactly that, so the matrix is not encoded again here.  The
        memory map keeps the task itself — an inline matrix's arrays are
        shared by reference, never copied — and ``root_json``, the root
        JSON of a delta chain (see :meth:`hold`).
        """
        known = key in self._memory
        self.hold(key, task, root_json)
        path = self._path(key)
        if path is not None and not known and not path.exists():
            path.write_text(record)

    def get(self, key: str, *, entry: bool = False):
        """The stored task of a key, or ``None`` when absent/unparseable.

        A memory entry comes first; otherwise the ``<key>.task.json``
        record is parsed and returned without being held.  With
        ``entry`` the lookup is a :class:`Stored`, telling the two apart.
        """
        held = self._memory.get(key)
        if held is not None:
            self._memory.move_to_end(key)
            return Stored(*held, trusted=True) if entry else held[0]
        path = self._path(key)
        if path is None or not path.exists():
            return None
        try:
            task = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(task, dict):
            return None
        return Stored(task, None, trusted=False) if entry else task

    def hold(self, key: str, task: dict, root_json: str | None = None) -> None:
        """Trust a task: keep it (with its chain's ``root_json``, if any)
        in the memory map as the newest entry, evicting the oldest past
        ``capacity``.  The caller keyed it in this process or revalidated
        it against ``key``."""
        self._memory[key] = (task, root_json)
        self._memory.move_to_end(key)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)
