#!/usr/bin/env python3
"""Observability smoke: the continuous accuracy audit, the structured
event log, and distributed tracing against a live advisor daemon.

Launches ``python -m repro.service`` as a subprocess with
``--audit-rate 0.25`` and ``--event-log``, then drives the observability
story end to end:

1. a sweep of cheap-tier fidelity-ladder answers (``max_tier`` 0 and 1)
   across the tiny collection plus two cache-overflowing ``small``
   stencils (a second paper class) — the deterministic sampler
   shadow-audits a quarter of them against the exact path, off the hot
   path;
2. the audit ledger must drain with **zero bound violations**: every
   observed per-class error quantile within its calibrated bound,
   ``/healthz`` still reporting ``"accuracy": "ok"``, and the
   ``repro_audit_*`` Prometheus families parsing strictly;
3. one traced request (context seeded via ``X-Repro-Trace``) returns a
   schema-valid span tree whose daemon and fork-worker spans share the
   caller's trace id, and lands in ``GET /debug/traces``;
4. the JSON-lines event log validates (``repro.obs.events/v1``) and
   correlates daemon + worker entries for one request by ``trace_id``
   across their different pids.

Run:  python examples/audit_smoke.py
CI:   python examples/audit_smoke.py --selftest     (quiet, asserts only)
"""

import argparse
import contextlib
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.cluster.harness import launch_replica, stop_replica
from repro.matrices.collection import collection
from repro.obs import parse_prometheus_text, validate_tree
from repro.obs.context import TraceContext
from repro.obs.events import validate_log_text
from repro.service import ServiceClient

SETUP = {"num_threads": 8}
AUDIT_RATE = 0.25
#: sampling is a deterministic hash of (seed, request key); this seed
#: makes the 25% sampler pick tier-0 keys from several matrix families,
#: a tier-1 key out of the tiny collection, AND one of the two
#: cache-overflowing ``small`` matrices below, so the smoke exercises
#: multiple paper classes and both cheap tiers on every run
AUDIT_SEED = 2
#: the tiny collection is all class (1) — every working set fits in L2.
#: these two ``small`` stencils overflow the cache, so auditing them
#: lands observed-error samples in a second paper class
OVERFLOW_NAMES = ("stencil_2d_005", "stencil_2d_029")


def drain_audit(client, deadline_seconds=180.0):
    """Wait until the audit backlog is empty and every sample resolved."""
    deadline = time.monotonic() + deadline_seconds
    while time.monotonic() < deadline:
        audit = client.metrics()["audit"]
        if (audit["backlog"] == 0
                and audit["completed"] + audit["failed"] >= audit["sampled"]):
            return audit
        time.sleep(0.2)
    raise AssertionError(f"audit backlog did not drain: {audit}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--selftest", action="store_true",
                        help="quiet mode for CI: asserts only")
    parser.add_argument("--event-log-out", default=None, metavar="PATH",
                        help="copy the daemon's event log here before the "
                             "workspace is cleaned up (CI validates it with "
                             "python -m repro.obs.events --validate)")
    args = parser.parse_args()
    say = (lambda *_: None) if args.selftest else print

    names = [spec.name for spec in collection("tiny")]
    with tempfile.TemporaryDirectory() as tmp:
        event_log = str(Path(tmp) / "events.jsonl")
        proc, host, port = launch_replica(
            ["--jobs", "2", "--cache", str(Path(tmp) / "cache"),
             "--audit-rate", str(AUDIT_RATE), "--audit-seed", str(AUDIT_SEED),
             "--event-log", event_log])
        client = ServiceClient(host, port, timeout=120.0)
        try:
            # -- 1. cheap-tier answers for the sampler to shadow-audit --
            say(f"sweeping {len(names)} matrices at max_tier 0 and 1 "
                f"(audit rate {AUDIT_RATE}) ...")
            for name in names:
                envelope = client.predict(name=name, collection="tiny",
                                          max_tier=0, **SETUP)
                assert envelope["ok"] and envelope["fidelity"]["tier"] == 0
            for name in names[:4]:
                envelope = client.advise(name=name, collection="tiny",
                                         max_tier=1, **SETUP)
                assert envelope["ok"]
                assert envelope["fidelity"]["tier"] <= 1
            for name in OVERFLOW_NAMES:
                envelope = client.predict(name=name, collection="small",
                                          max_tier=0, **SETUP)
                assert envelope["ok"] and envelope["fidelity"]["tier"] == 0

            # -- 2. the audit drains with zero bound violations ---------
            audit = drain_audit(client)
            say(f"audit: {audit['sampled']} sampled, "
                f"{audit['completed']} completed, {audit['failed']} failed, "
                f"{audit['violations_total']} violations")
            assert audit["sampled"] >= 6, "deterministic sampler regressed"
            assert audit["failed"] == 0
            assert audit["violations_total"] == 0
            assert audit["status"] == "ok"
            assert len(audit["observed_error"]) >= 2, \
                "expected several exercised paper classes"
            tiers_seen = {tier for per_tier in audit["observed_error"].values()
                          for tier in per_tier}
            assert {"0", "1"} <= tiers_seen, tiers_seen
            for cls_value, per_tier in sorted(audit["observed_error"].items()):
                for tier, sketch in sorted(per_tier.items()):
                    say(f"  class {cls_value} tier {tier}: "
                        f"{sketch['count']} sample(s), "
                        f"p99 {sketch['quantiles']['p99']:.4f} "
                        f"<= bound {sketch['bound']}")
                    assert sketch["count"] > 0
                    assert sketch["violations"] == 0
                    assert sketch["quantiles"]["p99"] <= sketch["bound"]
            assert client.request("GET", "/healthz")["accuracy"] == "ok"
            samples = parse_prometheus_text(client.metrics(format="prometheus"))
            assert samples["repro_audit_observed_error"]
            assert sum(v for _, v
                       in samples["repro_audit_bound_violations_total"]) == 0
            assert "repro_audit_backlog" in samples

            # -- 3. one traced request, context seeded via the header ---
            caller = TraceContext.new()
            host, port = client.host, client.port
            traced_client = ServiceClient(host, port, timeout=120.0,
                                          trace_context=caller)
            envelope = traced_client.sweep(name=names[0], collection="tiny",
                                           trace=True, **SETUP)
            assert envelope["ok"]
            tree = envelope["trace"]
            assert tree is not None and validate_tree(tree) == []
            spans = {root["name"]: root for root in tree["roots"]}
            assert spans["service.request"]["attrs"]["trace_id"] == caller.trace_id
            assert spans["evaluate"]["attrs"]["trace_id"] == caller.trace_id
            assert (spans["evaluate"]["attrs"]["span_id"]
                    != spans["service.request"]["attrs"]["span_id"])
            debug = traced_client.request("GET", "/debug/traces")
            assert any(e["trace_id"] == caller.trace_id
                       for e in debug["traces"])
            traced_client.close()
            say(f"trace {caller.trace_id} round-tripped and recorded "
                "in /debug/traces")

        finally:
            try:
                client.shutdown()
            except Exception:
                pass  # already down, or never came up
            client.close()
            with contextlib.suppress(subprocess.TimeoutExpired):
                proc.wait(timeout=30)
            stop_replica(proc)

        # -- 4. the event log validates and correlates processes --------
        entries, problems = validate_log_text(
            Path(event_log).read_text(encoding="utf-8"))
        assert problems == [], problems
        events = {entry["event"] for entry in entries}
        for needed in ("service.start", "request", "worker.evaluate",
                       "audit.sample", "service.stop"):
            assert needed in events, (needed, sorted(events))
        by_trace = {}
        for entry in entries:
            if entry.get("trace_id"):
                by_trace.setdefault(entry["trace_id"], []).append(entry)
        correlated = [
            group for group in by_trace.values()
            if {"request", "worker.evaluate"} <= {e["event"] for e in group}
            and len({e["source"]["pid"] for e in group}) >= 2
        ]
        assert correlated, "no trace_id correlating daemon + worker pids"
        say(f"event log: {len(entries)} entries, {len(events)} kinds, "
            f"{len(by_trace)} trace ids, "
            f"{len(correlated)} cross-process correlations")
        if args.event_log_out:
            Path(args.event_log_out).write_bytes(
                Path(event_log).read_bytes())

    if args.selftest:
        print("audit_smoke selftest: OK")
    else:
        print("audit smoke: all assertions passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
