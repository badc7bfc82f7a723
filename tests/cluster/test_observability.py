"""Cluster-wide observability: the merged distributed trace, the
gateway's Prometheus exposition, /debug/traces, and the event log.

The headline invariant: one traced request through the gateway returns
ONE schema-valid tree rooted at ``gateway.route`` — covering routing,
failover and the winning replica's evaluation phases — and every span
that carries a ``trace_id`` carries the *same* one, even when the
first-preference replica dies mid-request.
"""

import pytest

from repro.cluster import ClusterHarness
from repro.matrices.collection import collection
from repro.obs import parse_prometheus_text, validate_tree
from repro.obs.context import TraceContext
from repro.obs.events import validate_log_text
from repro.service.protocol import normalize_request, request_key

SETUP = {"num_threads": 8}
NAMES = [spec.name for spec in collection("tiny")[:4]]


def _walk(node):
    yield node
    for child in node.get("children", ()):
        yield from _walk(child)


def _trace_ids(tree):
    return {node["attrs"]["trace_id"] for root in tree["roots"]
            for node in _walk(root) if "trace_id" in node.get("attrs", {})}


def _predict_payload(name):
    return {"matrix": {"name": name, "collection": "tiny"}, "setup": SETUP,
            "policies": [{"l2_sector1_ways": 4}], "trace": True}


def test_traced_request_returns_one_merged_tree(tmp_path):
    caller = TraceContext.new()
    with ClusterHarness(replicas=2, jobs=1,
                        cache_root=tmp_path / "cache") as harness:
        client = harness.client(timeout=120.0, trace_context=caller)
        envelope = client.request("POST", "/predict",
                                  _predict_payload(NAMES[0]))
        client.close()
    assert envelope["ok"]
    tree = envelope["trace"]
    assert validate_tree(tree) == []
    root, = tree["roots"]
    assert root["name"] == "gateway.route"
    assert root["attrs"]["trace_id"] == caller.trace_id
    # routing, the replica's request handling, and the worker's
    # evaluation phases all hang off the single root
    names = [node["name"] for node in _walk(root)]
    for phase in ("gateway.forward", "service.request", "pool.evaluate",
                  "evaluate"):
        assert phase in names, names
    assert _trace_ids(tree) == {caller.trace_id}


def test_failover_keeps_one_trace_id_across_both_attempts(tmp_path):
    caller = TraceContext.new()
    payload = _predict_payload(NAMES[1])
    key = request_key(normalize_request("predict", payload))
    # no probe loop: its first round runs at start-up and, landing after
    # the kill, would eject the victim before the data path tries it
    with ClusterHarness(
        replicas=3, jobs=1, cache_root=tmp_path / "cache",
        gateway_config={"probe_interval_seconds": 0},
    ) as harness:
        preferred = harness.gateway.membership.preference(key)[0]
        victim = next(r for r in harness.replicas
                      if (r.host, r.port) == (preferred.host, preferred.port))
        harness.kill_replica(victim.index)
        client = harness.client(timeout=120.0, trace_context=caller)
        envelope = client.request("POST", "/predict", payload)
        client.close()
    assert envelope["ok"]
    tree = envelope["trace"]
    assert validate_tree(tree) == []
    root, = tree["roots"]
    assert root["name"] == "gateway.route"
    forwards = [c for c in root["children"] if c["name"] == "gateway.forward"]
    assert len(forwards) >= 2, "expected a failed attempt before the winner"
    assert forwards[0]["attrs"]["outcome"] == "failover"
    assert forwards[0]["attrs"]["replica"] == preferred.node
    winner = forwards[-1]
    assert winner["attrs"]["outcome"] == "ok"
    # the winning forward carries the replica's evaluation phases ...
    names = [node["name"] for node in _walk(winner)]
    for phase in ("service.request", "pool.evaluate", "evaluate"):
        assert phase in names, names
    # ... and the dead attempt fabricated none
    assert [node["name"] for node in _walk(forwards[0])] == ["gateway.forward"]
    # one trace id everywhere, across gateway + both replica attempts
    assert _trace_ids(tree) == {caller.trace_id}


@pytest.fixture(scope="module")
def observed_cluster(tmp_path_factory):
    base = tmp_path_factory.mktemp("obs_cluster")
    with ClusterHarness(
        replicas=2, jobs=1, cache_root=base / "cache",
        gateway_config={"event_log_path": str(base / "gateway-events.jsonl")},
    ) as harness:
        client = harness.client(timeout=120.0)
        yield harness, client, base / "gateway-events.jsonl"
        client.close()


def test_gateway_prometheus_round_trips_strictly(observed_cluster):
    _, client, _ = observed_cluster
    client.advise(name=NAMES[2], collection="tiny", **SETUP)
    text = client.metrics(format="prometheus")
    samples = parse_prometheus_text(text)  # raises on malformed exposition
    snapshot = client.metrics()
    up = {labels["replica"]: value
          for labels, value in samples["repro_gateway_replica_up"]}
    assert len(up) == 2 and all(value == 1 for value in up.values())
    forwarded = sum(value for labels, value
                    in samples["repro_gateway_routed_total"]
                    if labels.get("endpoint") == "advise")
    assert forwarded == sum(snapshot["routed"].get("advise", {}).values())
    assert "repro_gateway_request_latency_seconds_bucket" in samples


def test_gateway_debug_traces_records_routed_requests(observed_cluster):
    _, client, _ = observed_cluster
    envelope = client.request("POST", "/predict", _predict_payload(NAMES[3]))
    assert envelope["ok"]
    debug = client.request("GET", "/debug/traces?endpoint=predict")
    assert debug["ok"]
    assert debug["traces"], "traced request must land in the gateway buffer"
    entry = debug["traces"][0]
    assert entry["endpoint"] == "predict"
    assert entry["status"] == "ok"
    trees = [e["tree"] for e in debug["traces"] if e["tree"] is not None]
    assert any(t["roots"][0]["name"] == "gateway.route" for t in trees)


def test_gateway_event_log_validates_and_correlates(observed_cluster):
    _, client, log_path = observed_cluster
    envelope = client.request("POST", "/predict", _predict_payload(NAMES[0]))
    assert envelope["ok"]
    entries, problems = validate_log_text(
        log_path.read_text(encoding="utf-8"))
    assert problems == []
    events = {entry["event"] for entry in entries}
    assert "gateway.start" in events and "gateway.request" in events
    routed = [e for e in entries if e["event"] == "gateway.request"]
    assert routed and all(e["source"]["role"] == "gateway" for e in routed)
    assert any(e.get("trace_id") for e in routed)
