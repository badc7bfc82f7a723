"""``python -m repro.cluster`` starts the gateway (and, optionally,
replica daemons it manages).

Examples::

    # front three already-running daemons
    python -m repro.cluster --replica 127.0.0.1:8787 \
        --replica 127.0.0.1:8788 --replica 127.0.0.1:8789

    # spawn 3 replicas (ephemeral ports, per-replica cache dirs under
    # --cache) plus the gateway, all torn down together
    python -m repro.cluster --spawn 3 --jobs 2 --cache .repro_cache
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from dataclasses import fields, replace
from pathlib import Path

from ..service.app import ServiceConfig
from .gateway import GatewayConfig, run_gateway
from .harness import launch_replica, stop_replica

#: a ``--spawn`` replica's place in the config until it announces its port
_UNSPAWNED = ("127.0.0.1", 0)


def build_parser() -> argparse.ArgumentParser:
    """The gateway's flags, each defaulting to its :class:`GatewayConfig`
    field or, for the spawned-replica flags, its :class:`ServiceConfig`
    field (docs/OPERATIONS.md §6 has one row per flag)."""
    replica = ServiceConfig()
    gateway = {f.name: f.default for f in fields(GatewayConfig)}
    parser = argparse.ArgumentParser(prog="python -m repro.cluster",
                                     description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8786,
                        help="0 binds an ephemeral port (announced on stdout)")
    parser.add_argument("--replica", action="append", default=[],
                        metavar="HOST:PORT",
                        help="an already-running replica daemon (repeatable)")
    parser.add_argument("--spawn", type=int, default=0, metavar="N",
                        help="spawn N replica daemons on ephemeral ports")
    parser.add_argument("--jobs", type=int, default=replica.jobs,
                        help="pool workers per spawned replica")
    parser.add_argument("--cache", default=replica.cache_dir,
                        help="cache root for spawned replicas (each gets "
                             "<cache>/replica-<i>; '' disables disk caching)")
    parser.add_argument("--probe-interval", type=float,
                        default=gateway["probe_interval_seconds"],
                        help="seconds between health/breaker probe rounds")
    parser.add_argument("--fail-after", type=int, default=gateway["fail_after"],
                        help="consecutive failed probes that eject a replica")
    parser.add_argument("--batch-window", type=int,
                        default=gateway["batch_window"],
                        help="default in-flight window for /batch")
    parser.add_argument("--event-log", default=None, metavar="PATH",
                        help="gateway structured event log (JSON lines); "
                             "spawned replicas get <PATH dir>/replica-<i>-"
                             "events.jsonl alongside it")
    parser.add_argument("--audit-rate", type=float, default=replica.audit_rate,
                        metavar="FRACTION",
                        help="forwarded to spawned replicas: shadow-audit "
                             "this fraction of cheap-tier ladder answers")
    parser.add_argument("--audit-budget-seconds", type=float, default=None,
                        metavar="SECONDS",
                        help="forwarded to spawned replicas: audit time "
                             "budget per replica")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.replica and args.spawn < 1:
        parser.error("give at least one --replica or --spawn N")
    if args.spawn < 0:
        parser.error("--spawn must be non-negative")

    replicas: list[tuple[str, int]] = []
    for spec in args.replica:
        host, _, port = spec.rpartition(":")
        try:
            replicas.append((host or "127.0.0.1", int(port)))
        except ValueError:
            parser.error(f"--replica expects HOST:PORT, got {spec!r}")

    extra: list[str] = []
    if args.audit_rate:
        extra += ["--audit-rate", str(args.audit_rate)]
    if args.audit_budget_seconds is not None:
        extra += ["--audit-budget-seconds", str(args.audit_budget_seconds)]

    # every flag is checked before anything is spawned: a bad one is a
    # usage error, never a gateway that dies and leaves replicas behind
    try:
        if args.spawn:
            ServiceConfig(jobs=args.jobs, audit_rate=args.audit_rate,
                          audit_budget_seconds=args.audit_budget_seconds)
        config = GatewayConfig(
            replicas=tuple(replicas) + (_UNSPAWNED,) * args.spawn,
            probe_interval_seconds=args.probe_interval,
            fail_after=args.fail_after,
            batch_window=args.batch_window,
            event_log_path=args.event_log,
        )
    except ValueError as exc:
        parser.error(str(exc))

    processes: list = []
    try:
        for index in range(args.spawn):
            cache_dir = (str(Path(args.cache) / f"replica-{index}")
                         if args.cache else "")
            flags = ["--jobs", str(args.jobs), "--cache", cache_dir]
            if args.event_log:
                # one log per process: the gateway writes PATH, replica i
                # writes replica-<i>-events.jsonl next to it (entries
                # still correlate by trace_id across all of them)
                log = Path(args.event_log).parent
                flags += ["--event-log",
                          str(log / f"replica-{index}-events.jsonl")]
            process, host, port = launch_replica(flags + extra)
            processes.append(process)
            replicas.append((host, port))
            print(f"replica {index} on http://{host}:{port} "
                  f"(cache: {cache_dir or 'disabled'})", flush=True)
        config = replace(config, replicas=tuple(replicas))
        asyncio.run(run_gateway(config, host=args.host, port=args.port))
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        for process in processes:
            stop_replica(process)
    return 0


if __name__ == "__main__":
    sys.exit(main())
