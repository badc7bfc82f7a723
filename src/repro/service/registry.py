"""Stored-task registry: the base records ``POST /delta`` patches against.

A delta request references an earlier request by its cache key; to
derive the edited task the daemon must recover the *canonical task* that
key was computed from.  The registry records it at request time — a
bounded in-memory map fronting optional ``<key>.task.json`` files next
to the result cache — and hands back what it holds (an unreadable file
is absent: 404).  The daemon's ``/delta`` handler recomputes the
:func:`~repro.service.protocol.request_key` of a stored task and answers
409 when it no longer matches (disk tampering, a format drift across
versions) rather than silently patching the wrong base.

The daemon stores a task's :func:`~repro.service.protocol.keyed_form`
(no per-request flags), so the stored bytes reproduce the key exactly
and registering the same request twice is idempotent.  Disk entries use
the ``.task.json`` suffix — distinct from the result entries'
``.<endpoint>.json`` — and are subject to the same GC sweep as results:
an expired base simply 404s and the client re-submits the full matrix
once.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from pathlib import Path


class TaskRegistry:
    """Bounded memory map plus optional disk persistence of stored tasks."""

    def __init__(self, cache_dir: str | Path | None,
                 capacity: int = 4096) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.capacity = capacity
        self._memory: OrderedDict[str, dict] = OrderedDict()

    def _path(self, key: str) -> Path | None:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{key}.task.json"

    def put(self, key: str, task: dict, record: str) -> None:
        """Record a keyed-form task under its request key (idempotent).

        ``record`` is ``canonical_json(task)``, the bytes persisted to
        disk: ``request_key(task, with_record=True)`` already encoded
        exactly that, so the matrix is not encoded again here.  The
        memory map keeps the task itself — an inline matrix's arrays are
        shared by reference, never copied.
        """
        known = key in self._memory
        self._hold(key, task)
        path = self._path(key)
        if path is not None and not known and not path.exists():
            path.write_text(record)

    def get(self, key: str) -> dict | None:
        """The stored task of a key, or ``None`` when absent/unparseable."""
        task = self._memory.get(key)
        if task is not None:
            self._memory.move_to_end(key)
            return task
        path = self._path(key)
        if path is None or not path.exists():
            return None
        try:
            task = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(task, dict):
            return None
        self._hold(key, task)
        return task

    def _hold(self, key: str, task: dict) -> None:
        """Keep a task in the memory map as its newest entry, evicting
        the oldest past ``capacity``."""
        self._memory[key] = task
        self._memory.move_to_end(key)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)
