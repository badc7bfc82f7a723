#!/usr/bin/env python3
"""Chaos smoke: seeded fault injection against a live advisor daemon.

Launches ``python -m repro.service`` as a subprocess with
``--allow-fault-injection`` and an aggressive circuit breaker, then
drives the failure modes end to end:

1. a healthy ``advise`` baseline,
2. a mixed concurrent burst — healthy requests interleaved with
   fault-carrying ones (injected worker errors and delays): every
   request must terminate as a result, a structured error, or a marked
   degraded answer — **zero lost requests**,
3. the breaker story: two injected worker crashes trip the ``advise``
   breaker (each one kills a pool worker; the pool is rebuilt), the
   next cache-missing request is answered from the analytic degraded
   path, and after ``--breaker-recovery`` a healthy probe closes the
   breaker again,
4. byte-identity: the baseline request replayed at the end returns the
   same result, so chaos left no residue in the cache.

Run:  python examples/chaos_smoke.py
CI:   python examples/chaos_smoke.py --selftest       (quiet, asserts only)
      python examples/chaos_smoke.py --write-plan p.json   (emit the plan
      for ``python -m repro.resilience.schema p.json``)
"""

import argparse
import json
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

from repro.cluster.harness import launch_replica, stop_replica
from repro.matrices import banded
from repro.resilience.schema import validate_plan
from repro.service import ServiceClient, ServiceError

#: The seeded plan CI validates with the schema CLI and this script uses
#: to crash workers: the first two advise evaluations die like segfaults.
CRASH_PLAN = {
    "schema": "repro.resilience.plan/v1",
    "seed": 42,
    "rules": [
        {"site": "worker.evaluate", "kind": "crash", "max_fires": 2},
    ],
}


def one_rule(site, kind, **fields):
    rule = {"site": site, "kind": kind, **fields}
    return {"schema": "repro.resilience.plan/v1", "seed": 7, "rules": [rule]}


def classify_outcome(call):
    """Run one request; every legal terminal outcome gets a label."""
    try:
        envelope = call()
    except ServiceError as exc:
        assert isinstance(exc.error.get("type"), str), exc.error
        return "error:" + exc.error["type"]
    assert envelope["ok"] is True
    return "degraded" if envelope.get("degraded") else "ok"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--selftest", action="store_true",
                        help="quiet run for CI; exit non-zero on any mismatch")
    parser.add_argument("--write-plan", metavar="PATH",
                        help="write the seeded crash plan as JSON and exit")
    parser.add_argument("--plan", metavar="PATH",
                        help="use this plan file for the crash phase instead")
    parser.add_argument("--jobs", type=int, default=2,
                        help="daemon worker processes (default: 2)")
    args = parser.parse_args()
    say = (lambda *_: None) if args.selftest else print

    if args.write_plan:
        with open(args.write_plan, "w") as handle:
            json.dump(CRASH_PLAN, handle, indent=1)
            handle.write("\n")
        print(f"wrote {args.write_plan}")
        return 0

    crash_plan = CRASH_PLAN
    if args.plan:
        with open(args.plan) as handle:
            crash_plan = json.load(handle)
    problems = validate_plan(crash_plan)
    assert not problems, problems

    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as cache_dir:
        proc, host, port = launch_replica(
            ["--jobs", str(args.jobs), "--cache", cache_dir,
             "--allow-fault-injection",
             "--breaker-threshold", "2", "--breaker-recovery", "0.5"])
        client = ServiceClient(host, port, timeout=120.0)
        try:
            say(f"daemon up at http://{client.host}:{client.port} "
                f"(--allow-fault-injection, breaker threshold 2)\n")

            # -- healthy baseline -------------------------------------
            baseline_matrix = banded(1_400, 50, 9, seed=1)
            baseline = client.advise(baseline_matrix, num_threads=8)
            assert baseline["ok"] and not baseline.get("degraded")
            say("baseline advise: ok (fresh evaluation)")

            # -- mixed burst: zero lost requests ----------------------
            calls = []
            for i in range(12):
                matrix = banded(600 + 16 * i, 24, 7, seed=i)
                if i % 3 == 1:
                    faults = one_rule("worker.evaluate", "error", max_fires=1)
                elif i % 3 == 2:
                    faults = one_rule("worker.evaluate", "delay",
                                      delay_seconds=0.05, max_fires=1)
                else:
                    faults = None
                calls.append(lambda m=matrix, f=faults:
                             client.classify(m, num_threads=8, faults=f))
            with ThreadPoolExecutor(max_workers=8) as pool:
                outcomes = list(pool.map(classify_outcome, calls))
            assert len(outcomes) == len(calls), "lost a request"
            # every outcome is a terminal one we recognize (with breaker
            # threshold 2, consecutive injected errors may open the
            # classify breaker mid-burst, turning later requests into
            # degraded answers — also a legal termination)
            legal = {"ok", "degraded", "error:FaultInjected"}
            assert set(outcomes) <= legal, outcomes
            assert "error:FaultInjected" in outcomes, outcomes
            say(f"mixed burst of {len(calls)}: every request terminated "
                f"({', '.join(sorted(set(outcomes)))})")

            # -- crash x2 trips the breaker ---------------------------
            crash_matrix = banded(2_000, 60, 9, seed=2)
            for attempt in range(2):
                outcome = classify_outcome(
                    lambda: client.advise(crash_matrix, num_threads=8,
                                          faults=crash_plan))
                assert outcome == "error:WorkerCrashed", outcome
            say("\n2 injected worker crashes: structured 500s, pool rebuilt")

            degraded = client.advise(banded(2_200, 60, 9, seed=3),
                                     num_threads=8)
            assert degraded["ok"] and degraded["degraded"] is True
            assert degraded["degraded_reason"] == "breaker_open"
            assert degraded["cached"] is None
            say("breaker open: next advise answered degraded "
                "(method-B closed forms)")

            # -- recovery: a healthy probe closes the breaker ---------
            time.sleep(0.7)
            probe = client.advise(banded(2_400, 60, 9, seed=4), num_threads=8)
            assert probe["ok"] and not probe.get("degraded")
            breaker = client.metrics()["breakers"]["advise"]
            assert breaker["state"] == "closed", breaker
            assert breaker["transitions"].get("closed->open") == 1, breaker
            assert breaker["transitions"].get("half_open->closed") == 1, breaker
            say(f"breaker recovered: transitions {breaker['transitions']}")

            # -- chaos left no residue --------------------------------
            replay = client.advise(baseline_matrix, num_threads=8)
            assert replay["result"] == baseline["result"]
            assert replay["cached"] is not None
            metrics = client.metrics()
            # a crash fire cannot report itself (the counter dies with the
            # worker) — its footprint is the restart counter
            assert "worker.evaluate:crash" not in metrics["faults_injected"]
            assert metrics["faults_injected"].get("worker.evaluate:error", 0) >= 1
            assert metrics["workers"]["restarts"] >= 2
            assert metrics["degraded"]["advise"]["breaker_open"] >= 1
            text = client.metrics(format="prometheus")
            assert 'repro_breaker_state{endpoint="advise"} 0' in text
            assert 'repro_worker_restarts_total 2' in text
            assert ('repro_breaker_transitions_total'
                    '{endpoint="advise",transition="closed->open"} 1') in text
            say("\nreplayed baseline: byte-identical result "
                f"(served from {replay['cached']!r})")
            say(f"faults injected: {metrics['faults_injected']}  "
                f"restarts: {metrics['workers']['restarts']}")

            assert client.shutdown()["ok"]
            assert proc.wait(timeout=30) == 0, "daemon exited uncleanly"
            say("daemon shut down cleanly")
        finally:
            stop_replica(proc)
    if args.selftest:
        print("chaos_smoke selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
