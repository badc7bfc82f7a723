"""Batch/streaming sweep requests (``POST /batch`` on the gateway).

The paper's canonical workload is a *collection* sweep — 490 SuiteSparse
matrices through the same model pipeline (Breiter/Trotter/Fürlinger,
SC-W 2023).  Driving that matrix-by-matrix costs a round trip apiece
and leaves the client to reinvent windowing.  A batch request submits
the whole collection as **one long-lived request**::

    {"endpoint": "advise",
     "items": [{"name": "banded_001", "collection": "small"},
               {"csr": {...}},
               ...],
     "setup": {"num_threads": 48},
     "window": 8}

``items`` is a list of matrix fields (named or inline, exactly the
``"matrix"`` object of a single request); every other field —
``setup`` plus the endpoint's own knobs — is shared by all items.  The
gateway validates and normalizes every item *up front* (each becomes a
canonical task with its own request key, consistent-hash routed like
any single request), then evaluates at most ``window`` items
concurrently and streams one NDJSON line per item **in completion
order**, each carrying its ``index`` into ``items``::

    {"index": 3, "ok": true, "key": "...", "cached": null, "result": {...}}
    {"index": 0, "ok": true, ...}
    ...
    {"batch": {"total": 490, "ok": 488, "errors": 2, ...}}

Backpressure is structural: a line is only handed to the socket when
the client keeps reading (chunked transfer + ``drain()``), and the
window semaphore is held until the line is written, so a slow client
throttles replica work instead of buffering the collection in gateway
memory.  An item that fails to normalize (or whose evaluation errors)
produces an error line, not a dead batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..service.protocol import (
    ENDPOINTS,
    RequestError,
    _cast,
    matrix_name,
    normalize_request,
    request_key,
)

__all__ = ["BatchItem", "BatchSpec", "MAX_WINDOW", "normalize_batch"]

#: Hard cap on the in-flight window a client may request.
MAX_WINDOW = 64

#: Top-level batch fields that are *not* forwarded into item payloads.
_BATCH_ONLY = ("endpoint", "items", "window")


@dataclass
class BatchItem:
    """One normalized batch entry (or its up-front validation error)."""

    index: int
    payload: dict | None = None      #: single-request payload to forward
    task: dict | None = None         #: canonical task (None when invalid)
    key: str | None = None
    name: str | None = None
    error: str | None = None


@dataclass
class BatchSpec:
    endpoint: str
    window: int
    items: list[BatchItem] = field(default_factory=list)

    @property
    def valid_items(self) -> list[BatchItem]:
        return [item for item in self.items if item.error is None]


def normalize_batch(payload: object, default_window: int) -> BatchSpec:
    """Validate a ``/batch`` body into a :class:`BatchSpec`.

    Raises :class:`RequestError` on structural problems (bad endpoint,
    empty items, bad window); per-item normalization problems become
    error entries so one typo'd matrix cannot kill a 490-item sweep.
    """
    if not isinstance(payload, dict):
        raise RequestError("batch body must be a JSON object")
    endpoint = payload.get("endpoint")
    if endpoint not in ENDPOINTS:
        raise RequestError(
            f"batch endpoint must be one of {list(ENDPOINTS)}, got {endpoint!r}"
        )
    items = payload.get("items")
    if not isinstance(items, list) or not items:
        raise RequestError("'items' must be a non-empty list of matrix objects")
    window = _cast(payload.get("window", default_window), int,
                   "window must be an integer")
    if window < 1:
        raise RequestError("window must be positive")
    window = min(window, MAX_WINDOW)
    if "matrix" in payload:
        raise RequestError("batch requests carry 'items', not 'matrix'")
    shared = {k: v for k, v in payload.items() if k not in _BATCH_ONLY}

    spec = BatchSpec(endpoint=endpoint, window=window)
    for index, matrix_field in enumerate(items):
        item_payload = dict(shared)
        item_payload["matrix"] = matrix_field
        try:
            task = normalize_request(endpoint, item_payload)
            spec.items.append(BatchItem(
                index=index,
                payload=item_payload,
                task=task,
                key=request_key(task),
                name=matrix_name(task),
            ))
        except RequestError as exc:
            spec.items.append(BatchItem(index=index, error=str(exc)))
    return spec
