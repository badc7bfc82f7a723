"""The repository benchmark: one command per workload.

    python3 perfbench/run.py --workload cold_mix --seed 20231112 \\
        --seconds 20 --trace 0

Workloads (closed loops with one or two client threads):

* ``cold_mix``     fresh evaluations on one daemon with an empty cache;
* ``warm_gateway`` memory-tier hits through a 3-replica gateway;
* ``delta_chain``  inline bases then chains of small ``/delta`` batches.

Every daemon and replica runs at ServiceConfig defaults with a fresh
cache directory.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` runs the separate traced replay and prints the per-layer
ledger.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Seeds: the default is 20231112; 7349 is held out from tuning, so a claim
made on the default seed can be re-checked on it.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: set-ups per untraced run; setup_s is their median
SETUPS = 5
#: a traced run keeps going past --seconds until it covers every op kind,
#: but never longer than this many times --seconds
TRACE_STRETCH = 3.0

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("ok_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def provenance(args, workload) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "params": workload.params(),
    }


def percentile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(args, scratch: Path) -> tuple[dict, list, list, object]:
    """The untraced run: SETUPS set-ups, one measured window, checks."""
    from repro.service.client import ServiceClient
    from system import Deployment, cpu_seconds, descendants, peak_rss_mb, tree_cpu_seconds
    from workloads import CLIENT_TIMEOUT, WORKLOADS, closed_loop

    setups, deployment, workload = [], None, None
    try:
        for index in range(SETUPS):
            if deployment is not None:
                deployment.stop()
            started = time.perf_counter()
            deployment = Deployment(scratch / f"setup-{index}")
            workload = WORKLOADS[args.workload](args.seed)
            workload.setup(deployment)
            setups.append(time.perf_counter() - started)
        with ServiceClient(*workload.address, timeout=CLIENT_TIMEOUT) as client:
            agents = workload.agents(client)
            before = cpu_seconds(descendants(os.getpid()))
            records, window = closed_loop(agents, args.seconds)
            pids = descendants(os.getpid())
            cpu = tree_cpu_seconds(before, cpu_seconds(pids))
            rss = peak_rss_mb(pids)
    finally:
        if deployment is not None:
            deployment.stop()
    problems = workload.problems(records)
    latencies = [r.seconds for r in records]
    done = max(len(records), 1)
    metrics = {
        "ops_per_s": len(records) / window if window > 0 else 0.0,
        "latency_p50_ms": 1000.0 * statistics.median(latencies) if latencies else 0.0,
        "latency_p90_ms": 1000.0 * percentile(latencies, 90) if len(latencies) > 1 else 0.0,
        "cpu_ms_per_op": 1000.0 * cpu / done,
        "ok_ratio": 1.0 - len(problems) / done,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    return metrics, records, problems, workload


def trace(args, scratch: Path) -> tuple[dict, int, int, object]:
    """The traced run: one set-up, then the in-process replay."""
    from system import Deployment
    from traced import run_traced
    from workloads import WORKLOADS

    started = time.perf_counter()
    deployment = Deployment(scratch / "setup")
    try:
        workload = WORKLOADS[args.workload](args.seed)
        workload.setup(deployment)
        budget = min(TRACE_STRETCH * args.seconds, 150.0 - (time.perf_counter() - started))
        metrics, attempted, failed = run_traced(workload, scratch, args.seconds, budget)
    finally:
        deployment.stop()
    return metrics, attempted, failed, workload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("cold_mix", "warm_gateway", "delta_chain"))
    parser.add_argument("--seed", type=int, default=20231112,
                        help="input seed (default 20231112; held out: 7349)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run with the per-layer ledger")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # servers run in their own sessions: turn SIGTERM into an exit so the
    # cleanup below still stops them
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    from system import SCRATCH, stop_descendants

    scratch = SCRATCH / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            from traced import PER_LAYER, ledger_table

            metrics, attempted, failed, workload = trace(args, scratch)
            units = {name: unit for name, unit, _, _ in PER_LAYER}
            report = ledger_table(metrics)
            problems = []
        else:
            from workloads import count_kinds

            metrics, records, problems, workload = measure(args, scratch)
            units = dict(END_TO_END)
            attempted, failed = len(records), len(problems)
            report = [f"ops by kind: {json.dumps(count_kinds(records))}",
                      f"samples: {attempted} (p90 has {attempted // 10} beyond it)",
                      f"failed_ratio: {failed / max(attempted, 1):.6f}"]
            if hasattr(workload, "summary"):
                report += workload.summary(records)
            report += [f"{name:16s} {metrics[name]:14.4f} {unit}" for name, unit in END_TO_END]
    finally:
        stop_descendants()
        shutil.rmtree(scratch, ignore_errors=True)
        if SCRATCH.is_dir() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()

    print("provenance: " + json.dumps(provenance(args, workload), sort_keys=True))
    for line in report:
        print(line)
    for problem in problems[:20]:
        print(f"FAILED: {problem}")
    correct = failed == 0 and attempted > 0
    print(f"verdict: {'correct' if correct else 'INCORRECT'} "
          f"({failed} of {attempted} ops failed)")
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
