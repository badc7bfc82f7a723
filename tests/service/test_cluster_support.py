"""Cluster-era service plumbing: keep-alive client, disk GC, peer hints."""

import http.client
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service import ServiceClient, ServiceConfig, ServiceThread
from repro.service.cache import QUARANTINE_SUFFIXES, gc_sweep
from repro.service.protocol import normalize_request, request_key

SETUP = {"num_threads": 8}


# -- keep-alive connection pooling ---------------------------------------


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("support_cache")
    thread = ServiceThread(ServiceConfig(jobs=1, cache_dir=str(cache_dir)))
    thread.start()
    yield thread
    thread.stop()


@pytest.fixture()
def client(server):
    host, port = server.address
    with ServiceClient(host, port, timeout=60.0) as c:
        yield c


def test_requests_reuse_one_pooled_connection(client):
    client.health()
    first = client._local.conn
    assert first is not None
    client.health()
    client.metrics()
    assert client._local.conn is first  # same socket, three requests


def test_stale_pooled_connection_reconnects_transparently(client):
    client.health()
    # simulate a server-side idle close: kill the pooled socket underneath
    client._local.conn.sock.close()
    assert client.health()["ok"]  # retried on a fresh connection
    assert client._local.conn is not None


def test_close_drops_the_pool_and_client_still_works(client):
    client.health()
    client.close()
    assert getattr(client._local, "conn", None) is None
    assert client.health()["ok"]


# -- peer hints are ignored ----------------------------------------------


def _post(host: str, port: int, payload: dict, headers: dict) -> dict:
    conn = http.client.HTTPConnection(host, port, timeout=60.0)
    try:
        conn.request("POST", "/advise", body=json.dumps(payload),
                     headers={"Content-Type": "application/json", **headers})
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def test_a_replica_ignores_a_peer_hint_from_any_caller(json_stub):
    """A body ``peer`` field or an ``X-Repro-Peer`` header names a host
    that would answer a forged result: the replica contacts no host a
    caller names and answers the request itself."""
    peer_host, peer_port = json_stub({"/cache/peek": {
        "ok": True, "found": True, "key": "0" * 32, "tier": "memory",
        "result": {"name": "forged"}}})
    body = {"matrix": {"name": "banded_001", "collection": "tiny"},
            "setup": SETUP}
    key = request_key(normalize_request("advise", body))
    hinted = [
        (dict(body, peer={"host": peer_host, "port": peer_port}), {}),
        (body, {"X-Repro-Peer": f"{peer_host}:{peer_port}"}),
    ]
    for payload, headers in hinted:
        # a fresh replica each time: no tier holds the answer yet
        with ServiceThread(ServiceConfig(jobs=1, cache_dir=None)) as (host, port):
            envelope = _post(host, port, payload, headers)
            with ServiceClient(host, port, timeout=60.0) as replica:
                plain = replica.advise(name="banded_001", collection="tiny",
                                       **SETUP)
        assert envelope["ok"] and envelope["cached"] is None
        assert envelope["key"] == key
        assert plain["cached"] == "memory"
        assert envelope["result"] == plain["result"]
    assert json_stub.seen == []


# -- disk-cache GC -------------------------------------------------------


def _write(path: Path, text: str, age_seconds: float = 0.0) -> None:
    path.write_text(text)
    if age_seconds:
        stamp = time.time() - age_seconds
        os.utime(path, (stamp, stamp))


def test_gc_expires_by_age_and_keeps_young_files(tmp_path):
    _write(tmp_path / "old.json", "x" * 100, age_seconds=3600)
    _write(tmp_path / "young.json", "y" * 100)
    stats = gc_sweep(tmp_path, max_age_seconds=600)
    assert stats["expired"] == 1 and stats["deleted"] == 1
    assert stats["kept"] == 1
    assert not (tmp_path / "old.json").exists()
    assert (tmp_path / "young.json").exists()


def test_gc_evicts_oldest_first_down_to_byte_budget(tmp_path):
    for i, age in enumerate((300, 200, 100)):
        _write(tmp_path / f"entry{i}.json", "z" * 100, age_seconds=age)
    stats = gc_sweep(tmp_path, max_bytes=250)
    # the two newest fit in 250 bytes; the oldest is evicted
    assert stats["evicted"] == 1
    assert not (tmp_path / "entry0.json").exists()
    assert (tmp_path / "entry2.json").exists()
    assert stats["kept_bytes"] <= 250


def test_gc_never_touches_quarantine_files(tmp_path):
    for suffix in QUARANTINE_SUFFIXES:
        _write(tmp_path / f"bad{suffix}", "q" * 500, age_seconds=7200)
    _write(tmp_path / "entry.json", "e" * 100, age_seconds=7200)
    stats = gc_sweep(tmp_path, max_age_seconds=60, max_bytes=10)
    assert stats["quarantined"] == len(QUARANTINE_SUFFIXES)
    assert stats["deleted"] == 1
    for suffix in QUARANTINE_SUFFIXES:
        assert (tmp_path / f"bad{suffix}").exists()


def test_gc_cli_reports_json_stats(tmp_path):
    _write(tmp_path / "old.json", "x" * 100, age_seconds=3600)
    _write(tmp_path / "keep.failure.json", "f", age_seconds=3600)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.service.cache", "--gc",
         "--dir", str(tmp_path), "--max-age", "600"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=Path(__file__).resolve().parents[2],
    )
    assert proc.returncode == 0, proc.stderr
    stats = json.loads(proc.stdout)
    assert stats["deleted"] == 1 and stats["quarantined"] == 1
    assert (tmp_path / "keep.failure.json").exists()


def test_gc_cli_requires_a_limit(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "repro.service.cache", "--gc",
         "--dir", str(tmp_path)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=Path(__file__).resolve().parents[2],
    )
    assert proc.returncode != 0


def test_periodic_gc_task_prunes_and_counts(tmp_path):
    """An opt-in --gc-interval daemon sweeps its own cache dir."""
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    _write(cache_dir / "stale.json", "s" * 100, age_seconds=3600)
    _write(cache_dir / "held.failure.json", "f", age_seconds=3600)
    config = ServiceConfig(jobs=1, cache_dir=str(cache_dir),
                           gc_interval_seconds=0.2,
                           gc_max_age_seconds=600)
    with ServiceThread(config) as (host, port):
        client = ServiceClient(host, port, timeout=30.0)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            gc = client.metrics()["gc"]
            if gc["sweeps"] >= 1:
                break
            time.sleep(0.1)
        assert gc["sweeps"] >= 1
        assert gc["deleted"] >= 1
        assert gc["quarantined"] >= 1
        client.close()
    assert not (cache_dir / "stale.json").exists()
    assert (cache_dir / "held.failure.json").exists()


def test_gc_interval_requires_a_limit():
    with pytest.raises(ValueError):
        ServiceConfig(jobs=1, cache_dir="/tmp/x", gc_interval_seconds=5.0)
