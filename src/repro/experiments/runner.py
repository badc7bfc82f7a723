"""Command-line entry point regenerating the paper's tables and figures.

Usage::

    python -m repro.experiments --exp table1
    python -m repro.experiments --exp figure2 --collection small
    python -m repro.experiments --exp all --collection full --cache .repro_cache
    python -m repro.experiments --exp figure3 --collection full --jobs 8
    python -m repro.experiments --exp section43
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from ..obs.report import render_report
from ..obs.schema import TRACE_SCHEMA_ID
from ..obs.tracer import Tracer, installed
from .ablations import section42, section43
from .bandwidth import render_section44, section44_summary
from .cluster import render_cluster, run_cluster
from .common import ExperimentSetup, collection_records
from .figure2 import figure2_series, render_figure2
from .ladder import render_ladder, run_ladder
from .optimize import render_optimize, run_optimize
from .figure3 import figure3_series, headline_numbers, render_figure3
from .figure4 import class_summary, figure4_points, render_figure4
from .figure5 import correlation, figure5_points, render_figure5
from .table1 import render_table1, run_table1
from .tables23 import (
    accuracy_rows,
    l1_accuracy,
    method_overhead,
    render_accuracy_table,
)

EXPERIMENTS = ("table1", "table2", "table3", "figure2", "figure3", "figure4", "figure5",
               "overhead", "section42", "section43", "section44")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    # "ladder", "optimize", "cluster" and "delta" are opt-in (not part of
    # "all"): they explore the fidelity trade-off / reordering search /
    # sharded service / incremental reuse engine rather than reproducing
    # a paper artifact
    parser.add_argument("--exp",
                        choices=EXPERIMENTS + ("all", "ladder", "optimize",
                                               "cluster", "delta"),
                        default="all")
    parser.add_argument("--collection", choices=("tiny", "small", "full"), default="small")
    parser.add_argument("--limit", type=int, default=None, help="cap the matrix count")
    parser.add_argument("--cache", default=".repro_cache", help="'' disables caching")
    parser.add_argument("--scale", type=int, default=16, help="machine scale factor")
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the matrix sweep (1 = in-process)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="per-matrix wall-clock budget in seconds (needs --jobs >= 2: an "
             "in-process sweep cannot stop a matrix)",
    )
    parser.add_argument(
        "--retry-failures", action="store_true",
        help="re-queue matrices with a <cache_key>.failure.json record from a "
             "previous sweep instead of skipping them (the record is deleted "
             "on success)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a hierarchical span trace of the run, write it to PATH "
             "as JSON, and print a self-time report",
    )
    parser.add_argument(
        "--accuracy", type=float, default=None, metavar="BOUND",
        help="fidelity-ladder accuracy SLO for --exp ladder (floored "
             "relative error; omitted = legacy fixed fidelity)",
    )
    parser.add_argument(
        "--max-tier", type=int, default=3, choices=(0, 1, 2, 3),
        help="fidelity-ladder escalation cap for --exp ladder",
    )
    parser.add_argument(
        "--budget", type=float, default=30.0, metavar="SECONDS",
        help="reordering-search cost budget for --exp optimize",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="reordering-search tie-break seed for --exp optimize",
    )
    parser.add_argument(
        "--replicas", type=int, default=3,
        help="replica daemons behind the gateway for --exp cluster",
    )
    parser.add_argument(
        "--window", type=int, default=8,
        help="batch in-flight window for --exp cluster",
    )
    parser.add_argument(
        "--delta-budget", type=int, default=None, metavar="ELEMENTS",
        help="patch-work ceiling for --exp delta (summed dirty "
             "reuse-window elements; default 65536)",
    )
    parser.add_argument(
        "--delta-edits", type=int, default=64,
        help="edit-batch size for --exp delta",
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    if args.accuracy is not None and args.accuracy <= 0:
        parser.error("--accuracy must be positive")
    if args.budget <= 0:
        parser.error("--budget must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.jobs < 1:
        parser.error("--jobs must be positive")
    if args.timeout is not None and args.jobs < 2:
        parser.error("--timeout needs --jobs >= 2")
    if args.replicas < 1:
        parser.error("--replicas must be positive")
    if args.window < 1:
        parser.error("--window must be positive")
    if args.delta_budget is not None and args.delta_budget < 0:
        parser.error("--delta-budget must be non-negative")
    if args.delta_edits < 1:
        parser.error("--delta-edits must be positive")

    cache = args.cache or None
    wanted = EXPERIMENTS if args.exp == "all" else (args.exp,)

    if not args.trace:
        return _run(args, cache, wanted)

    started = time.perf_counter()
    with Tracer(memory="rss") as tracer, installed(tracer):
        # one root span over the whole run partitions the wall time: every
        # phase's self time is a slice of this span by construction
        with tracer.span(
            "repro.experiments",
            exp=args.exp, collection=args.collection, jobs=args.jobs,
        ):
            status = _run(args, cache, wanted)
    wall_seconds = time.perf_counter() - started
    merged = tracer.tree().merged()
    payload = {
        "schema": TRACE_SCHEMA_ID,
        "wall_seconds": wall_seconds,
        "tree": merged.to_dict(),
    }
    Path(args.trace).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print(render_report(merged, wall_seconds))
    print(f"trace written to {args.trace}")
    return status


def _run(args: argparse.Namespace, cache: str | None, wanted: tuple[str, ...]) -> int:
    if "ladder" in wanted:
        setup = ExperimentSetup(scale=args.scale, num_threads=48)
        rows = run_ladder(
            args.collection, setup, accuracy=args.accuracy,
            max_tier=args.max_tier, limit=args.limit, verbose=args.verbose,
        )
        print(render_ladder(rows, args.accuracy, args.max_tier))
        print()

    if "optimize" in wanted:
        from ..optimize import SearchConfig

        setup = ExperimentSetup(scale=args.scale, num_threads=48)
        config = SearchConfig(budget_seconds=args.budget, seed=args.seed)
        rows = run_optimize(
            args.collection, setup, config,
            limit=args.limit, verbose=args.verbose,
        )
        print(render_optimize(rows, config))
        print()

    if "delta" in wanted:
        from ..delta import DEFAULT_BUDGET
        from .delta import render_delta, run_delta

        setup = ExperimentSetup(scale=args.scale, num_threads=1)
        budget = (DEFAULT_BUDGET if args.delta_budget is None
                  else args.delta_budget)
        rows = run_delta(setup, edits=args.delta_edits, budget=budget,
                         seed=args.seed, verbose=args.verbose)
        print(render_delta(rows))
        print()

    if "cluster" in wanted:
        setup = ExperimentSetup(scale=args.scale, num_threads=48)
        summary = run_cluster(
            args.collection, setup, replicas=args.replicas,
            window=args.window, limit=args.limit, verbose=args.verbose,
        )
        print(render_cluster(summary))
        print()

    if "table1" in wanted:
        print(render_table1(run_table1()))
        print()

    parallel_setup = ExperimentSetup(scale=args.scale, num_threads=48)
    needs_parallel = {"table3", "figure2", "figure3", "figure4", "figure5", "overhead",
                      "section44"}
    if needs_parallel & set(wanted):
        records = collection_records(
            args.collection, parallel_setup, cache, limit=args.limit,
            verbose=args.verbose, jobs=args.jobs, timeout=args.timeout,
            retry_failures=args.retry_failures,
        )
        if not records:
            print(
                "error: no matrices measured (every matrix failed or timed out); "
                "see the <cache_key>.failure.json records in the cache directory",
                file=sys.stderr,
            )
            return 1
        machine = parallel_setup.machine()
        if "figure2" in wanted:
            print(render_figure2(figure2_series(records)))
            print()
        if "figure3" in wanted:
            print(render_figure3(figure3_series(records)))
            print("headline:", headline_numbers(records))
            print()
        if "figure4" in wanted:
            points = figure4_points(records)
            print(render_figure4(points))
            print("per-class summary:", class_summary(points))
            print()
        if "figure5" in wanted:
            points = figure5_points(records, machine)
            print(render_figure5(points))
            print(f"correlation(demand-miss change, speedup) = {correlation(points):.3f}")
            print()
        if "table3" in wanted:
            rows = accuracy_rows(records, machine, parallel=True)
            print(render_accuracy_table(
                rows, "Table 3: L2 miss prediction error, parallel SpMV (48 threads)"
            ))
            print(l1_accuracy(records, machine, parallel=True))
            print()
        if "overhead" in wanted:
            print("Section 4.5.1 overhead:", method_overhead(records))
            print()
        if "section44" in wanted:
            print(render_section44(records, machine, count=8))
            summary = section44_summary(records, machine, count=10)
            print(
                "top-bandwidth set: "
                f"{summary['top_bandwidth_min_gbs']:.0f}-{summary['top_bandwidth_max_gbs']:.0f} GB/s; "
                "top-speedup set: "
                f"{summary['top_speedup_bandwidth_min_gbs']:.0f}-"
                f"{summary['top_speedup_bandwidth_max_gbs']:.0f} GB/s "
                f"(overlap {summary['overlap_count']:.0f})"
            )
            print("paper: 513-783 GB/s vs 74-376 GB/s, no overlap in the top-20 sets")
            print()

    if "table2" in wanted:
        sequential = ExperimentSetup(scale=args.scale, num_threads=1)
        records = collection_records(
            args.collection, sequential, cache, limit=args.limit,
            verbose=args.verbose, jobs=args.jobs, timeout=args.timeout,
            retry_failures=args.retry_failures,
        )
        machine = sequential.machine()
        rows = accuracy_rows(records, machine, parallel=False)
        print(render_accuracy_table(
            rows, "Table 2: L2 miss prediction error, sequential SpMV"
        ))
        print(l1_accuracy(records, machine, parallel=False))
        print()

    if "section43" in wanted:
        print(section43(parallel_setup))
        print()
    if "section42" in wanted:
        print(section42(parallel_setup))
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
