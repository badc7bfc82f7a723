"""Gateway end-to-end tests: routing, failover, readmission, batches.

One in-process cluster (thread-mode :class:`ClusterHarness`) per module
for the read-only tests; the kill/restart stories build their own.
"""

import http.client
import json
import time
from pathlib import Path

import pytest

from repro.analysis.report import canonical_json
from repro.cluster import ClusterHarness
from repro.matrices.collection import collection
from repro.service import ServiceClient, ServiceConfig, ServiceThread
from repro.service.client import ServiceError

SETUP = {"num_threads": 8}
NAMES = [spec.name for spec in collection("tiny")[:4]]


def _items(names=NAMES):
    return [{"name": name, "collection": "tiny"} for name in names]


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    cache_root = tmp_path_factory.mktemp("gateway_cluster")
    with ClusterHarness(replicas=2, jobs=1, cache_root=cache_root) as harness:
        client = harness.client(timeout=120.0)
        yield harness, client
        client.close()


@pytest.fixture(scope="module")
def direct_answers(tmp_path_factory):
    """name -> (key, canonical result) from one un-sharded daemon."""
    cache_dir = tmp_path_factory.mktemp("gateway_direct")
    config = ServiceConfig(jobs=1, cache_dir=str(cache_dir))
    with ServiceThread(config) as (host, port):
        client = ServiceClient(host, port, timeout=120.0)
        answers = {
            name: (envelope["key"], canonical_json(envelope["result"]))
            for name in NAMES
            for envelope in [client.advise(name=name, collection="tiny",
                                           **SETUP)]
        }
        client.close()
    return answers


def test_gateway_health_and_metrics(cluster):
    _, client = cluster
    health = client.health()
    assert health["ok"] and health["role"] == "gateway"
    assert health["replicas"]["total"] == 2
    metrics = client.metrics()
    assert metrics["membership"]["alive"] == 2
    text = client.metrics(format="prometheus")
    assert "repro_gateway_replica_up" in text
    assert text.count('} 1') >= 2  # both replicas up


def test_routed_answers_match_direct_daemon(cluster, direct_answers):
    """The tentpole invariant: sharding must not change any answer."""
    _, client = cluster
    for name in NAMES:
        envelope = client.advise(name=name, collection="tiny", **SETUP)
        key, expected = direct_answers[name]
        assert envelope["key"] == key
        assert canonical_json(envelope["result"]) == expected


def test_requests_route_by_key_and_warm_their_owner(cluster):
    harness, client = cluster
    envelope = client.advise(name=NAMES[0], collection="tiny", **SETUP)
    owner = harness.gateway.membership.owner(envelope["key"])
    # the owning replica now has the entry; the other replica does not
    entry = f"{envelope['key']}.advise.json"
    holders = [r.index for r in harness.replicas
               if (Path(r.cache_dir) / entry).exists()]
    assert [harness.replicas[i].node for i in holders] == [owner.node]
    routed = client.metrics()["routed"]["advise"]
    assert sum(routed.values()) >= 1


def test_gateway_rejects_bad_requests_without_forwarding(cluster):
    _, client = cluster
    before = sum(client.metrics()["routed"].get("advise", {}).values())
    with pytest.raises(ServiceError) as err:
        client.advise(name="no_such_matrix", collection="tiny", **SETUP)
    assert err.value.status == 404
    after = sum(client.metrics()["routed"].get("advise", {}).values())
    assert after == before
    assert client.metrics()["bad_requests"] >= 1


def test_batch_streams_every_item_plus_summary(cluster, direct_answers):
    _, client = cluster
    lines = list(client.batch("advise", _items(), window=2, setup=SETUP))
    *item_lines, tail = lines
    assert len(item_lines) == len(NAMES)
    assert sorted(line["index"] for line in item_lines) == list(
        range(len(NAMES))
    )
    for line in item_lines:
        key, expected = direct_answers[line["name"]]
        assert line["ok"] and line["key"] == key
        assert canonical_json(line["result"]) == expected
    summary = tail["batch"]
    assert summary["total"] == len(NAMES)
    assert summary["ok"] == len(NAMES)
    assert summary["errors"] == 0
    assert summary["window"] == 2


def test_batch_invalid_item_gets_an_error_line_not_a_dead_batch(cluster):
    _, client = cluster
    items = _items() + [{"name": "no_such_matrix", "collection": "tiny"}]
    lines = list(client.batch("advise", items, window=2, setup=SETUP))
    *item_lines, tail = lines
    by_index = {line["index"]: line for line in item_lines}
    assert by_index[len(NAMES)]["ok"] is False
    assert by_index[len(NAMES)]["error"]["type"] == "RequestError"
    assert all(by_index[i]["ok"] for i in range(len(NAMES)))
    assert tail["batch"]["errors"] == 1
    assert tail["batch"]["ok"] == len(NAMES)


def test_batch_rejects_malformed_payloads(cluster):
    _, client = cluster
    with pytest.raises(ServiceError) as err:
        list(client.batch("nonsense", _items()))
    assert err.value.status == 400
    with pytest.raises(ServiceError) as err:
        list(client.batch("advise", []))
    assert err.value.status == 400
    with pytest.raises(ServiceError) as err:
        list(client.batch("advise", _items(), window=0))
    assert err.value.status == 400


def test_batch_with_an_infinite_window_is_a_400(cluster):
    harness, client = cluster
    before = client.metrics()["bad_requests"]
    host, port = harness.address
    conn = http.client.HTTPConnection(host, port, timeout=60.0)
    try:
        # 1e999 parses as a float infinity, which int() cannot take
        conn.request("POST", "/batch", body=(
            '{"endpoint": "advise", "items": [{"name": "%s", '
            '"collection": "tiny"}], "window": 1e999}' % NAMES[0]))
        response = conn.getresponse()
        error = json.loads(response.read())["error"]
    finally:
        conn.close()
    assert response.status == 400
    assert error["message"] == "window must be an integer"
    assert client.metrics()["bad_requests"] == before + 1


def test_failover_loses_nothing_and_readmits(tmp_path, direct_answers):
    """Kill a replica mid-stream: zero lost answers, each still byte-identical
    to a single daemon's; restart readmits it."""
    with ClusterHarness(
        replicas=3, jobs=1, cache_root=tmp_path,
        gateway_config={"probe_interval_seconds": 0.2},
    ) as harness:
        client = harness.client(timeout=120.0)
        streamed = []
        for line in client.batch("advise", _items(), window=2, setup=SETUP):
            streamed.append(line)
            if len(streamed) == 2:
                harness.kill_replica(0)
        *item_lines, tail = streamed
        assert tail["batch"]["errors"] == 0
        assert len(item_lines) == len(NAMES)
        for line in item_lines:
            key, expected = direct_answers[line["name"]]
            assert line["ok"] and line["key"] == key
            assert canonical_json(line["result"]) == expected

        # a full pass with the replica down: every key it owned fails over
        lines = list(client.batch("advise", _items(), window=2, setup=SETUP))
        *item_lines, tail = lines
        assert tail["batch"]["errors"] == 0
        assert len(item_lines) == len(NAMES)
        assert all(line["ok"] for line in item_lines)
        metrics = client.metrics()
        assert metrics["exhausted"] == 0
        # ejection is either immediate (a forward hit the dead socket) or
        # one probe round away (the dead replica happened to own none of
        # the batch keys) — poll rather than race the probe loop
        deadline = time.monotonic() + 5.0
        alive = metrics["membership"]["alive"]
        while alive != 2 and time.monotonic() < deadline:
            time.sleep(0.1)
            alive = client.metrics()["membership"]["alive"]
        assert alive == 2

        harness.restart_replica(0)
        assert harness.wait_alive(3, deadline_seconds=15.0)
        assert client.metrics()["membership"]["readmissions"] >= 1
        client.close()


def test_a_readmitted_replica_answers_its_keys_from_its_own_disk_tier(
        tmp_path):
    """A replica restarted with its disk tier intact is warm again for the
    keys that remap back to it: after readmission no key is evaluated."""
    with ClusterHarness(
        replicas=3, jobs=1, cache_root=tmp_path,
        gateway_config={"probe_interval_seconds": 0.2},
    ) as harness:
        client = harness.client(timeout=120.0)
        first = list(client.batch("advise", _items(), window=2, setup=SETUP))
        # ring placement hashes ephemeral ports: kill the replica that owns
        # the first key, so at least one key remaps away and back
        first_key = next(line["key"] for line in first
                         if line.get("index") == 0)
        owner = harness.gateway.membership.owner(first_key)
        victim = next(r.index for r in harness.replicas
                      if (r.host, r.port) == (owner.host, owner.port))
        harness.kill_replica(victim)
        # interim owners evaluate and cache the dead replica's keys
        down = list(client.batch("advise", _items(), window=2, setup=SETUP))
        assert down[-1]["batch"]["errors"] == 0

        harness.restart_replica(victim)
        assert harness.wait_alive(3, deadline_seconds=15.0)
        lines = list(client.batch("advise", _items(), window=2, setup=SETUP))
        *item_lines, tail = lines
        assert tail["batch"]["errors"] == 0
        assert all(line["cached"] in ("memory", "disk") for line in item_lines)
        assert next(line["cached"] for line in item_lines
                    if line["key"] == first_key) == "disk"
        assert not harness.replica_client(victim).metrics()["evaluations"]
        client.close()


def test_a_client_peer_field_is_ignored_so_no_forged_answer_is_adopted(
        tmp_path, json_stub):
    """A ``peer`` field names a host that would answer a forged result:
    through the gateway, on a model body and on a ``/batch`` body, it is
    ignored like any unknown field and no host it names is contacted."""
    forged_host, forged_port = json_stub({"/cache/peek": {
        "ok": True, "found": True, "key": "x", "tier": "memory",
        "result": {"name": "forged"}}})
    peer = {"host": forged_host, "port": forged_port}
    with ClusterHarness(replicas=1, jobs=1, cache_root=tmp_path) as harness:
        client = harness.client(timeout=120.0)
        matrix = {"name": NAMES[0], "collection": "tiny"}
        hinted = client.request("POST", "/classify",
                                {"matrix": matrix, "setup": SETUP,
                                 "peer": peer})
        assert hinted["cached"] is None
        line, tail = client.batch("classify", [matrix], setup=SETUP, peer=peer)
        assert tail["batch"]["errors"] == 0
        honest = client.classify(name=NAMES[0], collection="tiny", **SETUP)
        for envelope in (hinted, line):
            assert envelope["key"] == honest["key"]
            assert envelope["result"] == honest["result"]
        assert honest["result"]["name"] == NAMES[0]
        assert "classes" in honest["result"]
        assert client.metrics()["bad_requests"] == 0
        client.close()
    assert json_stub.seen == []


def _band_edits(matrix, rows):
    """Band-local edits (the incremental path) for the delta routing tests."""
    inserts, deletes = [], []
    for r in rows:
        cols = matrix.colidx[matrix.rowptr[r]:matrix.rowptr[r + 1]].tolist()
        colset = set(cols)
        ins = next(c for base in cols for c in (base + 1, base - 1)
                   if 0 <= c < matrix.num_cols and c not in colset)
        inserts.append([r, int(ins), 1.0])
        deletes.append([r, int(cols[0])])
    return inserts, deletes


def test_delta_routes_by_base_key_to_the_owning_replica(cluster):
    """A delta must land where the base's registry entry and warm reuse
    state live: the replica the base key hashed to."""
    from repro.delta import MatrixDelta
    from repro.matrices.generators import banded

    harness, client = cluster
    matrix = banded(800, 6, 4, seed=13)
    base = client.advise(matrix=matrix, num_threads=1, scale=16)
    assert base["ok"], base
    owner = harness.gateway.membership.owner(base["key"])

    ins, dels = _band_edits(matrix, [17, 400])
    d1 = client.delta(base["key"], inserts=ins, deletes=dels)
    assert d1["ok"], d1
    assert d1["delta"]["path"] == "incremental", d1["delta"]

    # byte identity survives the extra hop
    edited = MatrixDelta.from_dict(
        {"inserts": ins, "deletes": dels}).apply(matrix).matrix
    full = client.advise(matrix=edited, num_threads=1, scale=16)
    assert canonical_json(d1["result"]) == canonical_json(full["result"])

    # the owning replica priced it; the gateway counted the route
    owner_client = ServiceClient(owner.host, owner.port, timeout=30.0)
    applied = owner_client.metrics()["delta"]["applied"]
    assert applied.get("advise", {}).get("incremental", 0) >= 1, applied
    owner_client.close()
    routed = client.metrics()["routed"].get("delta", {})
    assert sum(routed.values()) >= 1

    # chaining keeps the affinity: the derived key hashes wherever it
    # likes, but the *request* still routes by its own base argument
    ins2, dels2 = _band_edits(edited, [80, 600])
    d2 = client.delta(d1["key"], inserts=ins2, deletes=dels2)
    assert d2["ok"] and d2["delta"]["chain_length"] == 2, d2


def test_gateway_rejects_malformed_delta_without_forwarding(cluster):
    _, client = cluster
    before = sum(client.metrics()["routed"].get("delta", {}).values())
    with pytest.raises(ServiceError) as err:
        client.delta("not-a-key", inserts=[[0, 1]])
    assert err.value.status == 400
    with pytest.raises(ServiceError) as err:
        client.request("POST", "/delta", {"base": "a" * 32, "delta": {}})
    assert err.value.status == 400
    assert sum(client.metrics()["routed"].get("delta", {}).values()) == before
