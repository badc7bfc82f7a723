"""Synchronous client for the advisor daemon (stdlib ``http.client``).

>>> client = ServiceClient("127.0.0.1", 8787)
>>> envelope = client.advise(matrix=my_csr_matrix, num_threads=48)
>>> rec = Recommendation.from_dict(envelope["result"])

Every model call returns the response *envelope*::

    {"ok": true, "endpoint": "advise", "key": "...",
     "cached": null | "memory" | "disk" | "coalesced", "result": {...}}

so callers can see which tier served them (degraded answers additionally
carry ``"degraded": true``).  Failures raise :class:`ServiceError` with
the HTTP status and the server's structured error object — including a
response body that is not JSON at all (a proxy error page, a torn
response from a dying daemon), which becomes a ``BadResponseBody`` error
with the raw body attached rather than a bare ``JSONDecodeError``.

The client can self-heal: construct it with ``retries=N`` and transient
failures (connection errors, timeouts, 5xx responses, bad bodies) are
retried under a capped exponential backoff with full jitter
(:class:`repro.resilience.BackoffPolicy`), bounded by an optional
``deadline_seconds`` budget.  Clock, sleep and rng are injectable, so the
retry schedule is deterministic under test.  The default stays
``retries=0`` — wire behaviour is unchanged unless asked for.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import socket
import threading
import time

from ..obs.context import TRACE_HEADER, TraceContext
from ..resilience.retry import BackoffPolicy, call_with_retries
from ..spmv.csr import CSRMatrix


class ServiceError(Exception):
    """A non-2xx response from the daemon (or an unparseable response).

    ``error`` is the server's structured error object; for a response
    body that was not valid JSON it is synthesized client-side with
    ``type="BadResponseBody"`` and the raw body under ``"body"``.
    """

    def __init__(self, status: int, error: dict) -> None:
        super().__init__(f"[{status}] {error.get('type')}: {error.get('message')}")
        self.status = status
        self.error = error


#: Bytes of a non-JSON response body preserved on a BadResponseBody error.
_BODY_SNIPPET_BYTES = 2048


def _retryable(exc: BaseException) -> bool:
    """Transient failures worth another attempt.

    Connection-level trouble (``OSError`` covers refused/reset/timeout),
    HTTP-protocol trouble, 5xx responses, and unparseable bodies; a 4xx
    means the request itself is wrong and retrying cannot help.  Model
    requests are safe to retry: the daemon coalesces and caches by
    canonical key, so a duplicate costs at most one cache lookup.
    """
    if isinstance(exc, (OSError, http.client.HTTPException)):
        return True
    if isinstance(exc, ServiceError):
        return exc.status >= 500 or exc.error.get("type") == "BadResponseBody"
    return False


def matrix_payload(matrix: CSRMatrix) -> dict:
    """The inline-CSR request form of a :class:`CSRMatrix`: its sparsity
    pattern, which is all the service models (its ``values`` stay home)."""
    return {
        "csr": {
            "num_rows": matrix.num_rows,
            "num_cols": matrix.num_cols,
            "rowptr": matrix.rowptr.tolist(),
            "colidx": matrix.colidx.tolist(),
        }
    }


def _matrix_field(
    matrix: CSRMatrix | dict | None, name: str | None, collection: str | None
) -> dict:
    if matrix is not None and name is not None:
        raise ValueError("pass either matrix= or name=, not both")
    if isinstance(matrix, CSRMatrix):
        return matrix_payload(matrix)
    if isinstance(matrix, dict):
        return matrix
    if name is not None:
        field = {"name": name}
        if collection is not None:
            field["collection"] = collection
        return field
    raise ValueError("a matrix= (CSRMatrix or payload dict) or name= is required")


class ServiceClient:
    """One daemon (or gateway) address with a persistent connection.

    The client keeps **one keep-alive connection per thread** (the
    daemon's warm path is a dictionary lookup, so TCP setup would
    dominate it) and transparently reconnects once when a pooled socket
    has gone stale — an idle keep-alive connection the server dropped
    looks exactly like a reset on the next call.  A fresh-connection
    failure still raises: the server really is unreachable.  Sharing one
    client across threads is safe; ``close()`` (or using the client as a
    context manager) drops every pooled connection.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8787,
                 timeout: float = 300.0, *,
                 retries: int = 0,
                 backoff: BackoffPolicy | None = None,
                 deadline_seconds: float | None = None,
                 trace_context: TraceContext | None = None,
                 clock=time.monotonic,
                 sleep=time.sleep) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self.deadline_seconds = deadline_seconds
        #: when set, every request carries this hop as an X-Repro-Trace
        #: header — a JSON body with an explicit trace_context still wins
        self.trace_context = trace_context
        self._clock = clock
        self._sleep = sleep
        self._local = threading.local()
        self._pooled: list[http.client.HTTPConnection] = []
        self._pooled_lock = threading.Lock()

    # -- connection pool (one keep-alive connection per thread) --------
    def _connection(self) -> tuple[http.client.HTTPConnection, bool]:
        """This thread's pooled connection; ``(conn, reused)``."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            return conn, True
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        self._local.conn = conn
        with self._pooled_lock:
            self._pooled.append(conn)
        return conn, False

    def _discard_connection(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            return
        self._local.conn = None
        with self._pooled_lock:
            with contextlib.suppress(ValueError):
                self._pooled.remove(conn)
        with contextlib.suppress(Exception):
            conn.close()

    def close(self) -> None:
        """Drop every pooled connection (all threads)."""
        with self._pooled_lock:
            pooled, self._pooled = self._pooled, []
        for conn in pooled:
            with contextlib.suppress(Exception):
                conn.close()
        self._local = threading.local()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- transport -----------------------------------------------------
    def request(self, method: str, path: str, payload: dict | None = None) -> dict:
        """One request, retried per the client's policy.

        With ``retries=0`` (the default) this is a single attempt.
        Otherwise transient failures (see :func:`_retryable`) are retried
        under the backoff policy; when a ``deadline_seconds`` budget is
        set, a retry whose sleep would overrun it raises
        :class:`repro.resilience.DeadlineExceeded` instead of waiting.
        """
        if self.retries <= 0:
            return self._request_once(method, path, payload)
        return call_with_retries(
            lambda: self._request_once(method, path, payload),
            retries=self.retries,
            backoff=self.backoff,
            retryable=_retryable,
            deadline_seconds=self.deadline_seconds,
            clock=self._clock,
            sleep=self._sleep,
        )

    def _request_once(self, method: str, path: str, payload: dict | None) -> dict:
        body = None if payload is None else json.dumps(payload)
        raw, status = self._exchange(method, path, body)
        try:
            envelope = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ServiceError(status, {
                "type": "BadResponseBody",
                "message": f"response body is not JSON: {exc}",
                "body": raw[:_BODY_SNIPPET_BYTES],
            }) from None
        if status >= 400:
            raise ServiceError(status, envelope.get("error", {}))
        return envelope

    def _exchange(self, method: str, path: str,
                  body: str | None) -> tuple[str, int]:
        """One request/response on the pooled connection.

        A connection-level failure on a *reused* socket is retried once
        on a fresh connection — the server may simply have dropped the
        idle keep-alive between calls.  ``http.client`` auto-reopens a
        connection the server closed cleanly (``Connection: close``), so
        only abrupt resets reach the retry.
        """
        headers = {"Content-Type": "application/json"} if body else {}
        if self.trace_context is not None:
            headers[TRACE_HEADER] = self.trace_context.to_header()
        while True:
            conn, reused = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                return response.read().decode(errors="replace"), response.status
            except (OSError, http.client.HTTPException):
                self._discard_connection()
                if not reused:
                    raise

    def _model(self, endpoint: str, matrix, name, collection, setup: dict,
               extra: dict) -> dict:
        payload: dict = {"matrix": _matrix_field(matrix, name, collection)}
        if setup:
            payload["setup"] = setup
        payload.update({k: v for k, v in extra.items() if v is not None})
        return self.request("POST", f"/{endpoint}", payload)

    # -- endpoints -----------------------------------------------------
    # `faults` ships a repro.resilience.plan/v1 object with the request
    # (chaos testing; the daemon refuses it without --allow-fault-injection)
    # `accuracy` is a fidelity-ladder error-bound SLO and `max_tier` caps
    # escalation (0..3); responses then carry a "fidelity" object
    def classify(self, matrix=None, *, name=None, collection=None,
                 way_options=None, timeout=None, trace=None, faults=None,
                 accuracy=None, max_tier=None, **setup) -> dict:
        return self._model("classify", matrix, name, collection, setup,
                           {"way_options": way_options, "timeout": timeout,
                            "trace": trace, "faults": faults,
                            "accuracy": accuracy, "max_tier": max_tier})

    def predict(self, matrix=None, *, name=None, collection=None,
                policies=None, timeout=None, trace=None, faults=None,
                accuracy=None, max_tier=None, **setup) -> dict:
        return self._model("predict", matrix, name, collection, setup,
                           {"policies": policies, "timeout": timeout,
                            "trace": trace, "faults": faults,
                            "accuracy": accuracy, "max_tier": max_tier})

    def advise(self, matrix=None, *, name=None, collection=None,
               way_options=None, consider_isolate_x=None,
               min_sector1_ways_with_prefetch=None, timeout=None,
               trace=None, faults=None, accuracy=None, max_tier=None,
               **setup) -> dict:
        return self._model("advise", matrix, name, collection, setup, {
            "way_options": way_options,
            "consider_isolate_x": consider_isolate_x,
            "min_sector1_ways_with_prefetch": min_sector1_ways_with_prefetch,
            "timeout": timeout,
            "trace": trace,
            "faults": faults,
            "accuracy": accuracy,
            "max_tier": max_tier,
        })

    def delta(self, base: str, *, inserts=None, deletes=None,
              accuracy=None, max_tier=None, timeout=None,
              trace=None) -> dict:
        """``POST /delta`` — patch a stored request with one edit batch.

        ``base`` is the ``"key"`` of a previous classify/predict/advise
        envelope (or of a previous delta response — edits chain);
        ``inserts`` and ``deletes`` are ``[[row, col], ...]`` (an
        insert's optional third element, a value, is checked and
        ignored).  The response envelope carries the derived
        ``"key"`` (the next base), the inner endpoint's result —
        byte-identical to re-submitting the edited matrix in full — and a
        ``"delta"`` object saying how it was priced.
        """
        payload: dict = {
            "base": base,
            "delta": {"inserts": inserts or [], "deletes": deletes or []},
        }
        payload.update({k: v for k, v in {
            "accuracy": accuracy, "max_tier": max_tier,
            "timeout": timeout, "trace": trace,
        }.items() if v is not None})
        return self.request("POST", "/delta", payload)

    def sweep(self, matrix=None, *, name=None, collection=None,
              timeout=None, trace=None, faults=None, **setup) -> dict:
        return self._model("sweep", matrix, name, collection, setup,
                           {"timeout": timeout, "trace": trace,
                            "faults": faults})

    def optimize(self, matrix=None, *, name=None, collection=None,
                 strategies=None, budget_seconds=None, seed=None,
                 accuracy=None, timeout=None, trace=None, faults=None,
                 **setup) -> dict:
        """Run the reordering search; the result carries the winning
        permutation pair plus tier-2-confirmed before/after predictions.

        ``accuracy`` here is the *confirmation* SLO (the search always
        screens at tiers 0/1); ``max_tier`` is not accepted.
        """
        return self._model("optimize", matrix, name, collection, setup,
                           {"strategies": strategies,
                            "budget_seconds": budget_seconds,
                            "seed": seed, "accuracy": accuracy,
                            "timeout": timeout, "trace": trace,
                            "faults": faults})

    # -- operations ----------------------------------------------------
    def metrics(self, format: str | None = None) -> dict | str:
        """The ``/metrics`` snapshot; text exposition for ``format="prometheus"``."""
        if format in (None, "json"):
            return self.request("GET", "/metrics")
        raw, status = self._exchange("GET", f"/metrics?format={format}", None)
        if status >= 400:
            raise ServiceError(status, json.loads(raw).get("error", {}))
        return raw

    def batch(self, endpoint: str, items: list, *, window: int | None = None,
              timeout: float | None = None, **shared):
        """Stream a batch through the gateway's ``POST /batch``.

        ``items`` is a list of matrix fields (``{"name": ...}`` or
        ``{"csr": {...}}``); ``shared`` carries ``setup`` plus endpoint
        knobs applied to every item.  Yields one dict per NDJSON line as
        the gateway emits them — per-item results in completion order
        (each with its ``index``), then the closing ``{"batch": ...}``
        summary.  Streams use a dedicated connection (a half-read chunked
        response cannot be reused), opened lazily at first iteration.
        """
        payload: dict = {"endpoint": endpoint, "items": list(items)}
        if window is not None:
            payload["window"] = window
        payload.update({k: v for k, v in shared.items() if v is not None})
        conn = http.client.HTTPConnection(
            self.host, self.port,
            timeout=self.timeout if timeout is None else timeout,
        )
        try:
            conn.request("POST", "/batch", body=json.dumps(payload),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            if response.status >= 400:
                raw = response.read().decode(errors="replace")
                try:
                    error = json.loads(raw).get("error", {})
                except json.JSONDecodeError as exc:
                    error = {"type": "BadResponseBody",
                             "message": f"response body is not JSON: {exc}",
                             "body": raw[:_BODY_SNIPPET_BYTES]}
                raise ServiceError(response.status, error)
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line)
        finally:
            conn.close()

    def health(self) -> dict:
        return self.request("GET", "/healthz")

    def shutdown(self) -> dict:
        return self.request("POST", "/shutdown")

    def wait_ready(self, deadline_seconds: float = 30.0,
                   poll_seconds: float = 0.1) -> None:
        """Block until ``/healthz`` answers (daemon start-up races)."""
        deadline = time.monotonic() + deadline_seconds
        while True:
            try:
                self.health()
                return
            except (OSError, socket.timeout, http.client.HTTPException):
                if time.monotonic() >= deadline:
                    raise
                time.sleep(poll_seconds)
