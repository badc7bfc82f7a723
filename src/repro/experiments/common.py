"""Shared experiment infrastructure.

All tables and figures of the paper derive from the same per-matrix
measurements: simulated PMU events for a grid of sector configurations,
model predictions by methods (A) and (B), and performance estimates.
:func:`measure_matrix` computes one matrix's bundle; :func:`run_collection`
sweeps a collection with JSON on-disk caching, so drivers and the service
share work across invocations.  The sweep itself, at every ``jobs`` value,
is the engine in :mod:`repro.experiments.pool`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..cachesim.events import CacheEvents
from ..cachesim.hierarchy import SimConfig, SpMVCacheSim
from ..core.classification import classify
from ..core.model import CacheMissModel
from ..machine.a64fx import A64FX, scaled_machine
from ..machine.perfmodel import PerformanceModel
from ..matrices.collection import MatrixSpec, collection
from ..matrices.stats import matrix_stats
from ..obs.tracer import Tracer, get_tracer, peak_rss_bytes
from ..spmv.csr import CSRMatrix
from ..spmv.sector_policy import SectorPolicy, no_sector_cache

#: L2 way splits evaluated everywhere (0 = sector cache off).
L2_WAY_OPTIONS: tuple[int, ...] = (0, 2, 3, 4, 5, 6, 7)
#: L1 way splits of Figure 2/3 (0 = L1 sector cache off).
L1_WAY_OPTIONS: tuple[int, ...] = (0, 1, 2, 3)


@dataclass(frozen=True)
class ExperimentSetup:
    """Machine, execution and sweep parameters of one experiment family."""

    scale: int = 16
    num_threads: int = 48
    iterations: int = 2
    l1_prefetch_distance: int = 2
    l2_prefetch_distance: int = 4
    l2_way_options: tuple[int, ...] = L2_WAY_OPTIONS
    l1_way_options: tuple[int, ...] = L1_WAY_OPTIONS

    def machine(self) -> A64FX:
        return scaled_machine(self.scale)

    def sim_config(self) -> SimConfig:
        return SimConfig(
            num_threads=self.num_threads,
            iterations=self.iterations,
            l1_prefetch_distance=self.l1_prefetch_distance,
            l2_prefetch_distance=self.l2_prefetch_distance,
        )

    def cache_key(self, matrix_name: str) -> str:
        payload = json.dumps(
            ["v6", matrix_name, self.scale, self.num_threads, self.iterations,
             self.l1_prefetch_distance, self.l2_prefetch_distance,
             list(self.l2_way_options), list(self.l1_way_options)],
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:20]


def _policy(setup: ExperimentSetup, l2w: int, l1w: int) -> SectorPolicy:
    if l2w == 0 and l1w == 0:
        return no_sector_cache()
    return SectorPolicy(l2_sector1_ways=l2w, l1_sector1_ways=l1w)


def _config_key(l2w: int, l1w: int) -> str:
    return f"{l2w},{l1w}"


@dataclass
class MatrixRecord:
    """One matrix's full measurement/prediction bundle (JSON-serialisable)."""

    name: str
    num_rows: int
    num_cols: int
    nnz: int
    mean_nnz_per_row: float
    cv_nnz_per_row: float
    x_bytes: int
    working_set_bytes: int
    threads: int
    #: Section 3.1 class per L2 way split, e.g. {"5": "2"}
    classes: dict[str, str] = field(default_factory=dict)
    #: simulated events per "(l2w,l1w)" key
    measured: dict[str, dict[str, int]] = field(default_factory=dict)
    #: method A / B predicted L2 misses per L2 way split key
    model_a: dict[str, int] = field(default_factory=dict)
    model_b: dict[str, int] = field(default_factory=dict)
    #: method A / B predicted L1 misses (sector cache off)
    model_a_l1: int = 0
    model_b_l1: int = 0
    #: modelled runtime (seconds) and Gflop/s per "(l2w,l1w)" key
    perf: dict[str, dict[str, float]] = field(default_factory=dict)
    #: wall-clock seconds spent in methods A and B (Section 4.5.1)
    model_a_seconds: float = 0.0
    model_b_seconds: float = 0.0
    #: per-phase wall-clock seconds (classify/simulate/model_a/model_b/total);
    #: all five values come from one tracer's spans, so
    #: ``total >= classify + simulate + model_a + model_b`` always holds
    timings: dict[str, float] = field(default_factory=dict)
    #: peak RSS of the measuring process when the record was produced, in
    #: bytes (0 when unavailable); in a pooled sweep this is the worker's peak
    peak_rss_bytes: int = 0
    #: the measurement phase during which the process peak-RSS high-water
    #: mark grew the most ("" when RSS sampling is unavailable or flat)
    peak_phase: str = ""

    def events(self, l2w: int, l1w: int = 0) -> CacheEvents:
        raw = self.measured[_config_key(l2w, l1w)]
        return CacheEvents(**{k: v for k, v in raw.items()})

    def l2_misses(self, l2w: int, l1w: int = 0) -> int:
        return self.measured[_config_key(l2w, l1w)]["l2_refill"]

    def demand_misses(self, l2w: int, l1w: int = 0) -> int:
        return self.measured[_config_key(l2w, l1w)]["l2_refill_demand"]

    def miss_change_percent(self, l2w: int, l1w: int = 0) -> float:
        base = self.l2_misses(0, 0)
        return 100.0 * (self.l2_misses(l2w, l1w) - base) / base if base else 0.0

    def demand_change_percent(self, l2w: int, l1w: int = 0) -> float:
        base = self.demand_misses(0, 0)
        return (
            100.0 * (self.demand_misses(l2w, l1w) - base) / base if base else 0.0
        )

    def speedup(self, l2w: int, l1w: int = 0) -> float:
        t0 = self.perf[_config_key(0, 0)]["seconds"]
        t1 = self.perf[_config_key(l2w, l1w)]["seconds"]
        return t0 / t1

    def gflops(self, l2w: int = 0, l1w: int = 0) -> float:
        return self.perf[_config_key(l2w, l1w)]["gflops"]

    def matrix_class(self, l2w: int) -> str:
        return self.classes[str(l2w)]

    def to_dict(self) -> dict:
        """JSON-serialisable form (cache records and the service wire format)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "MatrixRecord":
        return cls(**payload)


def measure_matrix(
    matrix: CSRMatrix, setup: ExperimentSetup, perf_model: PerformanceModel | None = None
) -> MatrixRecord:
    """Simulate, model and estimate one matrix under a setup.

    The four measurement phases run as spans of one tracer — the ambient
    :mod:`repro.obs` tracer when tracing is on (so model/simulator spans
    nest under the phases and end up in the run's trace), or a throwaway
    local tracer otherwise.  The record's ``timings`` are derived from
    those spans, which makes the phase/total accounting consistent by
    construction: ``total`` is the enclosing span, so it always covers at
    least the sum of the phases.
    """
    machine = setup.machine()
    stats = matrix_stats(matrix)
    perf_model = perf_model or PerformanceModel(machine)
    num_cmgs = machine.cmgs_used(setup.num_threads)
    record = MatrixRecord(
        name=matrix.name,
        num_rows=matrix.num_rows,
        num_cols=matrix.num_cols,
        nnz=matrix.nnz,
        mean_nnz_per_row=stats.mean_nnz_per_row,
        cv_nnz_per_row=stats.cv_nnz_per_row,
        x_bytes=matrix.x_bytes,
        working_set_bytes=matrix.total_bytes,
        threads=setup.num_threads,
    )
    tracer = get_tracer()
    if tracer is None:
        tracer = Tracer(memory="rss")
    with tracer.span("measure_matrix", matrix=matrix.name) as sp_total:
        with tracer.span("classify") as sp_classify:
            for l2w in setup.l2_way_options:
                record.classes[str(l2w)] = classify(
                    matrix, machine, l2w, num_cmgs
                ).value

        with tracer.span("simulate") as sp_simulate:
            sim = SpMVCacheSim(matrix, machine, setup.sim_config())
            for l1w in setup.l1_way_options:
                for l2w in setup.l2_way_options:
                    if l1w > 0 and l2w == 0:
                        continue  # the paper never enables L1 sectors alone
                    events = sim.events(_policy(setup, l2w, l1w))
                    key = _config_key(l2w, l1w)
                    record.measured[key] = {
                        "l1_refill": events.l1_refill,
                        "l2_refill": events.l2_refill,
                        "l2_refill_demand": events.l2_refill_demand,
                        "l2_refill_prefetch": events.l2_refill_prefetch,
                        "l2_writeback": events.l2_writeback,
                    }
                    est = perf_model.estimate(matrix, events, setup.num_threads)
                    record.perf[key] = {"seconds": est.seconds, "gflops": est.gflops}

        model = CacheMissModel(
            matrix,
            machine,
            num_threads=setup.num_threads,
            iterations=setup.iterations,
        )
        sweep_policies = [_policy(setup, l2w, 0) for l2w in setup.l2_way_options]
        with tracer.span("model_a") as sp_a:
            for l2w, pred in zip(setup.l2_way_options, model.sweep(sweep_policies, "A")):
                record.model_a[str(l2w)] = pred.l2_misses
            record.model_a_l1 = model.predict_l1(no_sector_cache(), "A").misses
        with tracer.span("model_b") as sp_b:
            for l2w, pred in zip(setup.l2_way_options, model.sweep(sweep_policies, "B")):
                record.model_b[str(l2w)] = pred.l2_misses
            record.model_b_l1 = model.predict_l1(no_sector_cache(), "B").misses

    record.model_a_seconds = sp_a.seconds
    record.model_b_seconds = sp_b.seconds
    phases = {
        "classify": sp_classify,
        "simulate": sp_simulate,
        "model_a": sp_a,
        "model_b": sp_b,
    }
    record.timings = {name: span.seconds for name, span in phases.items()}
    record.timings["total"] = sp_total.seconds
    peak_deltas = {name: span.rss_delta_bytes for name, span in phases.items()}
    if any(peak_deltas.values()):
        record.peak_phase = max(phases, key=lambda name: peak_deltas[name])
    record.peak_rss_bytes = peak_rss_bytes()
    return record


#: Record fields that vary run-to-run (timing, memory) and must be ignored
#: when checking that two sweeps produced identical results.
VOLATILE_FIELDS: tuple[str, ...] = (
    "model_a_seconds",
    "model_b_seconds",
    "timings",
    "peak_rss_bytes",
    "peak_phase",
)


def record_fingerprint(record: MatrixRecord) -> str:
    """Canonical digest of a record's deterministic content.

    In-process, pooled and cached sweeps of the same inputs must agree on
    this digest; the instrumentation fields of :data:`VOLATILE_FIELDS` are
    excluded because wall time and RSS are not reproducible.
    """
    payload = asdict(record)
    for name in VOLATILE_FIELDS:
        payload.pop(name, None)
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def cache_entry_path(
    cache_path: Path, setup: ExperimentSetup, matrix_name: str
) -> Path:
    """On-disk location of one matrix's cached measurement bundle."""
    return cache_path / f"{setup.cache_key(matrix_name)}.json"


def failure_entry_path(
    cache_path: Path, setup: ExperimentSetup, matrix_name: str
) -> Path:
    """On-disk location of one matrix's persisted sweep failure."""
    return cache_path / f"{setup.cache_key(matrix_name)}.failure.json"


def load_cached_record(
    cache_path: Path | None, setup: ExperimentSetup, matrix_name: str
) -> MatrixRecord | None:
    """The cached record for a matrix, or None on a cache miss."""
    if cache_path is None:
        return None
    entry = cache_entry_path(cache_path, setup, matrix_name)
    if not entry.exists():
        return None
    return MatrixRecord.from_dict(json.loads(entry.read_text()))


def store_record(
    cache_path: Path | None, setup: ExperimentSetup, record: MatrixRecord
) -> None:
    """Persist a record; the sweep engine writes each one as it lands.

    A stale failure record for the same matrix is removed: the matrix
    evidently measures fine now, so a later sweep must not skip it.
    """
    if cache_path is None:
        return
    entry = cache_entry_path(cache_path, setup, record.name)
    entry.write_text(json.dumps(record.to_dict()))
    failure_entry_path(cache_path, setup, record.name).unlink(missing_ok=True)


def run_collection(
    specs: list[MatrixSpec],
    setup: ExperimentSetup,
    cache_dir: str | Path | None = ".repro_cache",
    verbose: bool = False,
    jobs: int = 1,
    timeout: float | None = None,
    retry_failures: bool = False,
) -> list[MatrixRecord]:
    """Measurement bundles for a list of matrix specs, with disk caching.

    A thin front for the sweep engine,
    :func:`repro.experiments.pool.run_collection_parallel`, at every
    ``jobs`` value: ``1`` measures in-process, more fans out over a process
    pool, and results, ordering and cache records are the same either way.
    A matrix whose measurement raises is recorded as
    ``<cache_key>.failure.json`` instead of aborting the sweep, and each
    record is written as soon as it is measured.

    Matrices with a persisted failure record from a previous sweep are
    skipped (so one pathological matrix does not re-pay its timeout on
    every invocation) unless ``retry_failures`` is set, in which case they
    are re-queued and the failure record is deleted on success.
    """
    from .pool import run_collection_parallel

    return run_collection_parallel(
        specs, setup, cache_dir, jobs=jobs, timeout=timeout, verbose=verbose,
        retry_failures=retry_failures,
    ).records


def collection_records(
    size: str = "small",
    setup: ExperimentSetup | None = None,
    cache_dir: str | Path | None = ".repro_cache",
    limit: int | None = None,
    verbose: bool = False,
    jobs: int = 1,
    timeout: float | None = None,
    retry_failures: bool = False,
) -> list[MatrixRecord]:
    """Records for the named synthetic collection (the usual entry point)."""
    setup = setup or ExperimentSetup()
    specs = collection(size, machine=setup.machine())
    if limit is not None:
        specs = specs[:limit]
    return run_collection(
        specs, setup, cache_dir, verbose=verbose, jobs=jobs, timeout=timeout,
        retry_failures=retry_failures,
    )
