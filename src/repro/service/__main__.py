"""``python -m repro.service`` starts the advisor daemon.

Examples::

    python -m repro.service --port 8787 --jobs 4
    python -m repro.service --port 0 --cache /tmp/advisor-cache
    python -m repro.service --cache ''          # disk tier disabled
    python -m repro.service --allow-fault-injection \
        --fault-plan chaos.json                 # chaos testing
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from ..resilience.faults import FaultPlan
from ..resilience.schema import validate_plan
from .app import ServiceConfig, run_server


def build_parser() -> argparse.ArgumentParser:
    """The daemon's flags, each defaulting to its :class:`ServiceConfig`
    field (docs/OPERATIONS.md §1 has one row per flag)."""
    defaults = ServiceConfig()
    parser = argparse.ArgumentParser(prog="python -m repro.service",
                                     description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8787,
                        help="0 binds an ephemeral port (announced on stdout)")
    parser.add_argument("--jobs", type=int, default=defaults.jobs,
                        help="model-evaluation worker processes")
    parser.add_argument("--cache", default=defaults.cache_dir,
                        help="disk cache directory shared with the sweep "
                             "engine ('' disables the disk tier)")
    parser.add_argument("--cache-bytes", type=int,
                        default=defaults.memory_max_bytes,
                        help="memory-tier byte budget")
    parser.add_argument("--timeout", type=float,
                        default=defaults.request_timeout,
                        help="default per-request evaluation budget in seconds")
    parser.add_argument("--allow-fault-injection", action="store_true",
                        help="accept the 'faults' request flag (chaos "
                             "testing; refused with a 403 otherwise)")
    parser.add_argument("--fault-plan", default=None, metavar="PLAN.json",
                        help="ambient repro.resilience.plan/v1 fault plan, "
                             "inherited by pool workers (requires "
                             "--allow-fault-injection)")
    parser.add_argument("--breaker-threshold", type=int,
                        default=defaults.breaker_failure_threshold,
                        help="consecutive evaluation failures that open an "
                             "endpoint's circuit breaker")
    parser.add_argument("--breaker-recovery", type=float,
                        default=defaults.breaker_recovery_seconds,
                        help="seconds an open breaker waits before probing")
    parser.add_argument("--saturation-depth", type=int,
                        default=defaults.saturation_queue_depth,
                        help="queue depth at which requests degrade instead "
                             "of queueing (0 disables)")
    parser.add_argument("--default-accuracy", type=float, default=None,
                        metavar="BOUND",
                        help="fidelity-ladder accuracy SLO injected into "
                             "model requests that carry none (floored "
                             "relative error, e.g. 0.5; unset keeps the "
                             "legacy fixed-fidelity behaviour)")
    parser.add_argument("--max-tier", type=int, default=None,
                        choices=(0, 1, 2, 3),
                        help="fidelity-ladder tier cap injected into model "
                             "requests that carry none")
    parser.add_argument("--max-optimize-budget", type=float,
                        default=defaults.max_optimize_budget_seconds,
                        metavar="SECONDS",
                        help="largest budget_seconds an /optimize request "
                             "may ask for (400 above it)")
    parser.add_argument("--gc-interval", type=float, default=None,
                        metavar="SECONDS",
                        help="run a disk-cache GC sweep this often (off by "
                             "default; needs --gc-max-age and/or "
                             "--gc-max-bytes)")
    parser.add_argument("--gc-max-age", type=float, default=None,
                        metavar="SECONDS",
                        help="GC: delete cache entries older than this")
    parser.add_argument("--gc-max-bytes", type=int, default=None,
                        help="GC: then delete oldest entries until the "
                             "cache directory fits this budget")
    parser.add_argument("--event-log", default=None, metavar="PATH",
                        help="append structured repro.obs.events/v1 JSON "
                             "lines here (validated by `python -m "
                             "repro.obs.events --validate PATH`)")
    parser.add_argument("--audit-rate", type=float,
                        default=defaults.audit_rate,
                        metavar="FRACTION",
                        help="shadow-sample this deterministic fraction of "
                             "delivered tier-0/1 ladder answers and re-answer "
                             "them at tier 2 off the hot path (0 disables)")
    parser.add_argument("--audit-budget-seconds", type=float, default=None,
                        metavar="SECONDS",
                        help="total pool seconds the accuracy audit may "
                             "spend over the daemon's lifetime (unset: "
                             "unbounded)")
    parser.add_argument("--audit-seed", type=int, default=defaults.audit_seed,
                        help="seed of the deterministic audit sampler "
                             "(replicas sharing a seed audit the same keys)")
    parser.add_argument("--delta-budget", type=int,
                        default=defaults.delta_budget,
                        metavar="ELEMENTS",
                        help="patch-work ceiling of the POST /delta "
                             "incremental engine (summed dirty reuse-window "
                             "elements; past it a delta falls back to full "
                             "re-evaluation, 0 forces the fallback always)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    fault_plan = None
    if args.fault_plan is not None:
        if not args.allow_fault_injection:
            parser.error("--fault-plan requires --allow-fault-injection")
        try:
            payload = json.loads(open(args.fault_plan).read())
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"--fault-plan: cannot read {args.fault_plan}: {exc}")
        problems = validate_plan(payload)
        if problems:
            parser.error("--fault-plan: " + "; ".join(problems))
        fault_plan = FaultPlan.from_dict(payload)

    try:
        config = ServiceConfig(
            jobs=args.jobs,
            cache_dir=args.cache or None,
            memory_max_bytes=args.cache_bytes,
            request_timeout=args.timeout,
            allow_fault_injection=args.allow_fault_injection,
            fault_plan=fault_plan,
            breaker_failure_threshold=args.breaker_threshold,
            breaker_recovery_seconds=args.breaker_recovery,
            saturation_queue_depth=args.saturation_depth or None,
            default_accuracy=args.default_accuracy,
            default_max_tier=args.max_tier,
            max_optimize_budget_seconds=args.max_optimize_budget,
            gc_interval_seconds=args.gc_interval,
            gc_max_age_seconds=args.gc_max_age,
            gc_max_bytes=args.gc_max_bytes,
            event_log_path=args.event_log,
            audit_rate=args.audit_rate,
            audit_budget_seconds=args.audit_budget_seconds,
            audit_seed=args.audit_seed,
            delta_budget=args.delta_budget,
        )
    except ValueError as exc:
        parser.error(str(exc))
    try:
        asyncio.run(run_server(config, host=args.host, port=args.port))
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
