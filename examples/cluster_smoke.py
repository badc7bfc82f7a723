#!/usr/bin/env python3
"""Cluster smoke: SIGKILL a replica mid-burst, lose nothing.

Launches a consistent-hash gateway in front of real ``python -m
repro.service`` subprocesses (:class:`repro.cluster.ClusterHarness` in
``process`` mode) and drives the failure story end to end:

1. a direct, un-sharded daemon answers the whole collection — the
   byte-identity reference;
2. the same collection streams through the gateway's ``POST /batch``;
   after the first two answers arrive, one replica is SIGKILLed
   mid-burst.  The stream must still deliver **every** answer (the
   gateway ejects the dead replica on the first failed forward and
   walks the failover preference), and every answer must match the
   direct daemon byte for byte;
3. the killed replica restarts on its original port, the probe loop
   readmits it, and a final warm pass serves the whole collection with
   zero errors, every answer again byte-identical to the direct
   daemon's: the readmitted replica answers from its own tiers or
   evaluates afresh.  It runs twice: four items in flight, opening at
   most four forward connections per replica (the restarted one lost
   its idle sockets at ejection), then one at a time, opening at most
   one per replica; every other forward reuses a kept-alive connection;
4. distributed tracing under failover: the preferred owner of a fresh
   key is SIGKILLed and a traced request routed immediately — the
   gateway must return ONE schema-valid merged tree rooted at
   ``gateway.route``, the dead attempt marked ``failover``, the winning
   forward carrying the replica's evaluation phases, and one
   ``trace_id`` shared by every span across all three processes.

Run:  python examples/cluster_smoke.py
CI:   python examples/cluster_smoke.py --selftest      (quiet, asserts only)
"""

import argparse
import sys
import tempfile
from pathlib import Path

from repro.analysis.report import canonical_json
from repro.cluster import ClusterHarness
from repro.matrices.collection import collection
from repro.obs import validate_tree
from repro.obs.context import TraceContext
from repro.service import ServiceClient, ServiceConfig, ServiceThread
from repro.service.protocol import normalize_request, request_key

SETUP = {"num_threads": 8}
MATRICES = 8
KILL_AFTER = 2  # answers consumed before the SIGKILL


def direct_answers(names, cache_dir):
    """name -> (key, canonical result JSON) from one plain daemon."""
    config = ServiceConfig(jobs=1, cache_dir=cache_dir)
    with ServiceThread(config) as (host, port):
        client = ServiceClient(host, port, timeout=120.0)
        answers = {}
        for name in names:
            envelope = client.advise(name=name, collection="tiny", **SETUP)
            answers[name] = (envelope["key"],
                            canonical_json(envelope["result"]))
        client.close()
    return answers


def _delta(before, after, family, label):
    """How much one labelled gateway counter grew between snapshots."""
    return (after.get(family, {}).get(label, 0)
            - before.get(family, {}).get(label, 0))


def _walk(node):
    yield node
    for child in node.get("children", ()):
        yield from _walk(child)


def traced_failover(harness, client, attempt):
    """Kill a fresh key's preferred owner, route one traced request.

    Returns the merged tree when the dead replica was still on the ring
    (the trace shows the failover), or None when the background probe
    ejected it first — the caller restarts the victim and retries.
    """
    # a fresh request key: predict with explicit policies is not in any
    # cache yet, so the winning replica must actually evaluate
    payload = {
        "matrix": {"name": collection("tiny")[attempt].name,
                   "collection": "tiny"},
        "setup": SETUP, "policies": [{"l2_sector1_ways": 2 + attempt}],
        "trace": True,
    }
    key = request_key(normalize_request("predict", payload))
    preferred = harness.gateway.membership.preference(key)[0]
    victim = next(r for r in harness.replicas
                  if (r.host, r.port) == (preferred.host, preferred.port))
    harness.kill_replica(victim.index)
    caller = TraceContext.new()
    payload["trace_context"] = caller.to_dict()
    envelope = client.request("POST", "/predict", payload)
    assert envelope["ok"], envelope
    tree = envelope["trace"]
    assert tree is not None and validate_tree(tree) == [], tree
    root, = tree["roots"]
    assert root["name"] == "gateway.route", root["name"]
    assert root["attrs"]["trace_id"] == caller.trace_id
    forwards = [c for c in root["children"] if c["name"] == "gateway.forward"]
    if len(forwards) < 2:
        return None, victim  # probe won the race; retry with a fresh key
    assert forwards[0]["attrs"]["outcome"] == "failover"
    assert forwards[0]["attrs"]["replica"] == preferred.node
    winner = forwards[-1]
    assert winner["attrs"]["outcome"] == "ok"
    names = [node["name"] for node in _walk(winner)]
    for phase in ("service.request", "pool.evaluate", "evaluate"):
        assert phase in names, names
    ids = {node["attrs"]["trace_id"] for node in _walk(root)
           if "trace_id" in node.get("attrs", {})}
    assert ids == {caller.trace_id}, ids
    return tree, victim


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--selftest", action="store_true",
                        help="quiet run for CI; exit non-zero on any mismatch")
    parser.add_argument("--replicas", type=int, default=2,
                        help="replica subprocesses behind the gateway")
    args = parser.parse_args()
    say = (lambda *_: None) if args.selftest else print

    names = [spec.name for spec in collection("tiny")[:MATRICES]]
    items = [{"name": name, "collection": "tiny"} for name in names]

    with tempfile.TemporaryDirectory(prefix="cluster-smoke-") as tmp:
        say(f"reference: one un-sharded daemon answers {len(names)} matrices")
        reference = direct_answers(names, str(Path(tmp) / "direct"))

        with ClusterHarness(
            replicas=args.replicas, jobs=1, mode="process",
            cache_root=Path(tmp) / "cluster",
            gateway_config={"probe_interval_seconds": 0.3},
        ) as harness:
            say(f"gateway up at {harness.address[0]}:{harness.address[1]} "
                f"fronting {args.replicas} replica subprocesses "
                f"{[r.node for r in harness.replicas]}\n")
            client = harness.client(timeout=120.0)

            # -- cold burst with a SIGKILL in the middle --------------
            got = []
            for line in client.batch("advise", items, window=4, setup=SETUP):
                got.append(line)
                if len(got) == KILL_AFTER:
                    victim = harness.kill_replica(0)
                    say(f"SIGKILLed replica {victim.node} after "
                        f"{KILL_AFTER} answers")
            *lines, tail = got
            summary = tail["batch"]
            assert summary["total"] == len(names), summary
            assert summary["errors"] == 0, summary
            assert len(lines) == len(names), "lost a request mid-burst"
            for line in lines:
                key, expected = reference[line["name"]]
                assert line["ok"], line
                assert line["key"] == key, line["name"]
                assert canonical_json(line["result"]) == expected, line["name"]
            metrics = client.metrics()
            assert metrics["exhausted"] == 0, metrics
            say(f"burst survived the kill: {summary['ok']}/{summary['total']} "
                f"answers, 0 lost, {metrics['failovers']} failover(s), "
                f"every answer byte-identical to the direct daemon")

            # -- restart, readmission, warm pass ----------------------
            harness.restart_replica(0)
            assert harness.wait_alive(args.replicas, deadline_seconds=20.0), \
                "killed replica was never readmitted"
            say(f"\nreplica restarted on its original port and readmitted "
                f"({client.metrics()['membership']['readmissions']} "
                f"readmission(s))")

            # window 4 forwards concurrently, up to 4 sockets a replica;
            # the sequential pass after it then opens at most one per
            # replica, the rest riding kept-alive connections
            for window, per_replica in ((4, 4), (1, 1)):
                before = client.metrics()
                warm = list(client.batch("advise", items, window=window,
                                         setup=SETUP))
                assert warm[-1]["batch"]["errors"] == 0
                assert len(warm) == len(names) + 1, "a warm answer is missing"
                tiers = {}
                for line in warm[:-1]:
                    key, expected = reference[line["name"]]
                    assert line["ok"], line
                    assert line["key"] == key, line["name"]
                    assert canonical_json(line["result"]) == expected, \
                        line["name"]
                    tier = line.get("cached") or "fresh"
                    tiers[tier] = tiers.get(tier, 0) + 1
                after = client.metrics()
                opened, reused = (
                    _delta(before, after, "forward_connections", outcome)
                    for outcome in ("opened", "reused"))
                failovers = after["failovers"] - before["failovers"]
                assert opened <= per_replica * args.replicas + failovers, \
                    (window, opened, failovers)
                # each answered forward counts once, on the socket that
                # answered
                assert opened + reused == len(names), (window, opened, reused)
                say(f"warm pass (window {window}) after recovery: "
                    f"{warm[-1]['batch']['ok']}/{len(names)} ok, byte-identical "
                    f"to the direct daemon, served from {tiers}; {opened} "
                    f"connection(s) opened, {reused} reused")

            # -- traced request surviving a mid-request kill ----------
            for attempt in range(3):
                tree, victim = traced_failover(harness, client, attempt)
                if tree is not None:
                    break
                # the probe loop ejected the victim before the request
                # routed; bring it back and try again with a fresh key
                harness.restart_replica(victim.index)
                assert harness.wait_alive(args.replicas,
                                          deadline_seconds=20.0)
            else:
                raise AssertionError(
                    "probe loop kept winning the kill/request race")
            span_count = sum(1 for root in tree["roots"]
                             for _ in _walk(root))
            say(f"\ntraced failover: one merged gateway.route tree "
                f"({span_count} spans), dead attempt marked, winning "
                f"replica's evaluation phases attached, single trace id "
                f"across gateway + both replica attempts")
            client.close()

    if args.selftest:
        print("cluster_smoke selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
