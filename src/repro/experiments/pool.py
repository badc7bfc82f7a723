"""The collection sweep engine: one path for every ``jobs`` value.

The paper's headline experiments sweep 490 matrices x ~16 sector
configurations.  :func:`run_collection_parallel` measures the cache
misses in-process at ``jobs=1`` and fans them out over a
``ProcessPoolExecutor`` otherwise, with the same three guarantees:

* **Determinism** — results, their ordering, and the on-disk cache records
  do not depend on ``jobs`` (instrumentation fields excepted; see
  :data:`repro.experiments.common.VOLATILE_FIELDS`).  Workers only compute;
  the parent absorbs their payloads in spec order and writes each cache
  entry or failure record as it absorbs it.
* **Fault isolation** — a measurement exception is caught where it is
  raised and returned as a structured :class:`SweepFailure`; with
  ``jobs >= 2`` a per-matrix timeout is enforced by the parent.  Either
  way the sweep continues, and the failure is persisted next to the cache
  records as ``<cache_key>.failure.json``.
* **Work stealing** — matrices are submitted as small chunks, so idle
  workers pick up remaining chunks regardless of how unevenly sized the
  matrices are.

``MatrixSpec.build`` closures are not picklable, so the pool uses the
``fork`` start method and publishes the work list through module globals:
workers inherit the specs at fork time and only integer indices cross the
process boundary.  Platforms without ``fork`` sweep in-process.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import signal
import time
import traceback
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..matrices.collection import MatrixSpec
from ..obs.tracer import Tracer, get_tracer, installed
from ..obs.tracer import span as obs_span
from ..obs.tree import TraceTree
from ..resilience import faults
from .common import (
    ExperimentSetup,
    MatrixRecord,
    failure_entry_path,
    load_cached_record,
    measure_matrix,
    store_record,
)


# Sockets registered by in-process daemons (advisor service, cluster
# gateway): listeners *and* accepted per-connection sockets.  A forked
# worker inherits every open fd, so a daemon socket stays alive in the
# kernel even after the daemon itself closes it (or dies), unless workers
# close their inherited copies.  The two failure modes are symmetric:
#
# * an inherited *listener* keeps completing TCP handshakes into a backlog
#   nobody accepts from — a black-hole port;
# * an inherited *accepted connection* suppresses the FIN/RST a client is
#   waiting on when the daemon dies mid-request — its ``readline`` then
#   blocks forever instead of failing over.
#
# Daemons register both kinds here; the worker initializer closes whatever
# was inherited.  Guarded only by the GIL: a socket registered concurrently
# with a fork is at worst missed by that one worker, which is the
# pre-registry status quo.
_PARENT_SOCKETS: list = []


def register_parent_socket(sock) -> None:
    """Record a daemon socket (listener or accepted connection) for
    forked workers to close."""
    _PARENT_SOCKETS.append(sock)


def unregister_parent_socket(sock) -> None:
    """Drop a closed daemon socket from the fork registry."""
    try:
        _PARENT_SOCKETS.remove(sock)
    except ValueError:
        pass


def _worker_signal_reset() -> None:
    """Detach a forked worker from the parent's signal plumbing and fds.

    A forked worker inherits the parent's Python-level signal handlers
    *and* its ``signal.set_wakeup_fd`` pipe.  When the advisor daemon's
    asyncio loop owns SIGINT/SIGTERM, a SIGTERM delivered to a worker
    (e.g. executor teardown after a sibling died) would run the inherited
    handler, write to the *shared* wakeup pipe, and trigger the parent's
    own shutdown callback — cleanly stopping the daemon because one of
    its children was told to exit.  Restore default dispositions and drop
    the wakeup fd so signals aimed at a worker stay in that worker.

    It also inherits any daemon sockets open at fork time (see
    :data:`_PARENT_SOCKETS`): listeners, which must be closed so a later
    daemon shutdown actually releases its port instead of leaving a
    kernel-side listener that accepts connections nobody will ever
    answer; and accepted connections, which must be closed so a daemon
    death actually resets its in-flight requests instead of leaving
    clients blocked on a socket the kernel still counts as open.
    """
    signal.set_wakeup_fd(-1)
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, signal.SIG_DFL)
    while _PARENT_SOCKETS:
        sock = _PARENT_SOCKETS.pop()
        # asyncio hands out TransportSocket wrappers without close();
        # closing the inherited fd directly works for those and for
        # plain sockets alike
        try:
            fd = sock.fileno()
            if fd >= 0:
                os.close(fd)
        except OSError:  # pragma: no cover - close of a dead fd
            pass


def fork_executor(jobs: int) -> ProcessPoolExecutor:
    """A process pool using the ``fork`` start method where available.

    Shared by the sweep engine and the advisor service
    (:mod:`repro.service`): ``fork`` keeps worker start-up cheap and lets
    workers inherit module state; platforms without it (Windows, some
    macOS configurations) fall back to the default start method, which
    only supports picklable work.
    """
    if "fork" in mp.get_all_start_methods():
        return ProcessPoolExecutor(max_workers=jobs,
                                   mp_context=mp.get_context("fork"),
                                   initializer=_worker_signal_reset)
    return ProcessPoolExecutor(max_workers=jobs)

# Work published to forked workers (MatrixSpec closures cannot be pickled;
# only chunk index lists are sent over the pipe).
_WORK_SPECS: list[MatrixSpec] = []
_WORK_SETUP: ExperimentSetup | None = None
#: when True, workers record a span tree per matrix and ship it back with
#: the record payload (set iff the parent has an ambient tracer installed)
_WORK_TRACE: bool = False


@dataclass(frozen=True)
class SweepFailure:
    """Structured record of one matrix whose measurement failed.

    Serialized as ``<cache_key>.failure.json`` in the cache directory so a
    resumed sweep can report (and retry) exactly what went wrong.
    """

    name: str
    index: int
    error_type: str
    message: str
    traceback: str = ""
    elapsed_seconds: float = 0.0

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


@dataclass
class SweepResult:
    """Outcome of a pooled sweep: ordered records plus isolated failures."""

    records: list[MatrixRecord]
    failures: list[SweepFailure] = field(default_factory=list)
    from_cache: int = 0
    wall_seconds: float = 0.0

    @property
    def failed_names(self) -> list[str]:
        return [f.name for f in self.failures]


def _measure_one(spec: MatrixSpec) -> MatrixRecord:
    with obs_span("materialize", matrix=spec.name):
        matrix = spec.materialize()
    return measure_matrix(matrix, _WORK_SETUP)


def _measure_chunk(indices: list[int]) -> list[dict]:
    """Worker body: measure a chunk of specs with per-matrix isolation.

    With tracing on, each matrix is measured under a fresh worker-local
    tracer and its serialized span tree travels back in the payload; the
    parent adopts the trees in spec order, so the assembled run tree is
    independent of worker scheduling.

    The ``pool.worker`` fault site fires once per matrix against the
    ambient plan inherited across ``fork`` (see
    :mod:`repro.resilience.faults`): a ``crash`` dies like a segfault and
    surfaces as pool breakage, a ``delay`` runs into the parent's
    per-matrix timeout, and an ``error`` lands in the structured
    :class:`SweepFailure` path — all three already-handled failure modes,
    now reachable deterministically.
    """
    payloads: list[dict] = []
    for index in indices:
        spec = _WORK_SPECS[index]
        started = time.perf_counter()
        try:
            faults.perform(faults.fire("pool.worker"))
            if _WORK_TRACE:
                with installed(Tracer(memory="rss")) as tracer:
                    record = _measure_one(spec)
                payloads.append({
                    "index": index,
                    "record": asdict(record),
                    "trace": tracer.tree().to_dict(),
                })
            else:
                record = _measure_one(spec)
                payloads.append({"index": index, "record": asdict(record)})
        except Exception as exc:  # noqa: BLE001 - isolation is the point
            payloads.append(
                {
                    "index": index,
                    "failure": {
                        "name": spec.name,
                        "index": index,
                        "error_type": type(exc).__name__,
                        "message": str(exc),
                        "traceback": traceback.format_exc(),
                        "elapsed_seconds": time.perf_counter() - started,
                    },
                }
            )
    return payloads


def _chunk(pending: list[int], jobs: int, chunksize: int | None) -> list[list[int]]:
    """Contiguous chunks sized for work stealing (several per worker)."""
    if chunksize is None:
        chunksize = max(1, min(8, len(pending) // (jobs * 4) or 1))
    return [pending[i : i + chunksize] for i in range(0, len(pending), chunksize)]


def run_collection_parallel(
    specs: list[MatrixSpec],
    setup: ExperimentSetup,
    cache_dir: str | Path | None = ".repro_cache",
    jobs: int = 2,
    timeout: float | None = None,
    verbose: bool = False,
    chunksize: int | None = None,
    retry_failures: bool = False,
) -> SweepResult:
    """Sweep a collection with per-matrix isolation and per-matrix writes.

    Each outcome is persisted the moment the parent absorbs it, in spec
    order: a record through :func:`store_record`, a new failure as its
    ``<cache_key>.failure.json``.  An interrupted sweep keeps every matrix
    absorbed before the interruption.

    Parameters
    ----------
    jobs:
        Worker process count.  ``1`` measures in-process, through the same
        isolation, persistence and result assembly as a pooled sweep.
    timeout:
        Per-matrix wall-clock budget in seconds, enforced by the parent
        while collecting a chunk (budget = ``timeout * len(chunk)``).  A
        timed-out chunk is recorded as failures and the sweep continues;
        the stuck worker is abandoned to finish in the background.  Needs
        ``jobs >= 2``: an in-process sweep cannot stop a matrix.
    chunksize:
        Matrices per submitted task; defaults to a size giving each worker
        ~4 chunks so stragglers are stolen.
    retry_failures:
        Re-queue matrices whose previous sweep left a
        ``<cache_key>.failure.json`` record (the default is to replay the
        recorded failure without re-paying the measurement or timeout);
        the record is deleted when the retry succeeds.
    """
    if jobs < 1:
        raise ValueError("jobs must be positive")
    if timeout is not None and jobs < 2:
        raise ValueError("timeout needs jobs >= 2: an in-process sweep "
                         "cannot stop a matrix")
    started = time.perf_counter()
    cache_path = Path(cache_dir) if cache_dir else None
    if cache_path:
        cache_path.mkdir(parents=True, exist_ok=True)

    slots: list[MatrixRecord | None] = [None] * len(specs)
    failures: list[SweepFailure] = []
    tracer = get_tracer()

    def progress(index: int, message: str) -> None:
        if verbose:
            print(f"[{index + 1}/{len(specs)}] {specs[index].name}: {message}")

    def absorb(payload: dict) -> None:
        # payloads arrive in spec order, so records, failure files and
        # adopted worker trees do too, whatever order workers finish in
        index = payload["index"]
        if "record" in payload:
            record = slots[index] = MatrixRecord(**payload["record"])
            store_record(cache_path, setup, record)
            progress(index, f"nnz={record.nnz} ({record.timings['total']:.1f}s)")
        else:
            failure = SweepFailure(**payload["failure"])
            failures.append(failure)
            if cache_path:
                failure_entry_path(cache_path, setup, failure.name).write_text(
                    failure.to_json()
                )
            progress(index, f"failed ({failure.error_type}: {failure.message})")
        if "trace" in payload:
            tracer.adopt(TraceTree.from_dict(payload["trace"]))

    from_cache = 0
    with obs_span("run_collection", matrices=len(specs), jobs=jobs):
        pending: list[int] = []
        for i, spec in enumerate(specs):
            cached = load_cached_record(cache_path, setup, spec.name)
            if cached is not None:
                slots[i] = cached
                from_cache += 1
                continue
            if cache_path is not None and not retry_failures:
                entry = failure_entry_path(cache_path, setup, spec.name)
                if entry.exists():
                    payload = json.loads(entry.read_text())
                    payload["index"] = i  # position in *this* sweep's spec list
                    failures.append(SweepFailure(**payload))
                    from_cache += 1
                    progress(i, "skipped (failed previously; rerun with "
                                "--retry-failures)")
                    continue
            pending.append(i)
        if pending:
            _measure_pending(specs, setup, pending, jobs, timeout, chunksize, absorb)

    failures.sort(key=lambda f: f.index)
    return SweepResult(
        records=[record for record in slots if record is not None],
        failures=failures,
        from_cache=from_cache,
        wall_seconds=time.perf_counter() - started,
    )


def _measure_pending(
    specs: list[MatrixSpec],
    setup: ExperimentSetup,
    pending: list[int],
    jobs: int,
    timeout: float | None,
    chunksize: int | None,
    absorb: Callable[[dict], None],
) -> None:
    """Measure the pending specs and hand each payload to ``absorb``, in
    spec order: in-process at ``jobs=1`` (or without ``fork``), otherwise
    as chunks over a forked pool."""
    global _WORK_SPECS, _WORK_SETUP, _WORK_TRACE
    use_pool = jobs > 1 and "fork" in mp.get_all_start_methods()
    _WORK_SPECS, _WORK_SETUP = list(specs), setup
    # in-process, spans land on the ambient tracer directly
    _WORK_TRACE = use_pool and get_tracer() is not None
    try:
        if not use_pool:
            for index in pending:
                absorb(_measure_chunk([index])[0])
            return
        pool = fork_executor(jobs)
        try:
            chunks = _chunk(pending, jobs, chunksize)
            futures = [(chunk, pool.submit(_measure_chunk, chunk)) for chunk in chunks]
            for chunk, future in futures:
                budget = timeout * len(chunk) if timeout is not None else None
                try:
                    payloads = future.result(timeout=budget)
                except FutureTimeout:
                    future.cancel()
                    message = f"exceeded {timeout:.3g}s per-matrix budget"
                    payloads = [_lost(i, "TimeoutError", message) for i in chunk]
                except Exception as exc:  # pool breakage (worker died hard)
                    payloads = [
                        _lost(i, type(exc).__name__, str(exc)) for i in chunk
                    ]
                for payload in payloads:
                    absorb(payload)
        finally:
            # don't block the sweep on abandoned (timed-out) workers
            pool.shutdown(wait=timeout is None, cancel_futures=True)
    finally:
        _WORK_SPECS, _WORK_SETUP, _WORK_TRACE = [], None, False


def _lost(index: int, error_type: str, message: str) -> dict:
    """Failure payload for a matrix whose chunk never reported back."""
    return {"index": index, "failure": {
        "name": _WORK_SPECS[index].name, "index": index,
        "error_type": error_type, "message": message,
    }}
