"""Cluster-era service plumbing: keep-alive client, disk GC, /cache/peek."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.matrices import banded
from repro.service import ServiceClient, ServiceConfig, ServiceThread
from repro.service.cache import QUARANTINE_SUFFIXES, gc_sweep
from repro.service.client import matrix_payload
from repro.service.protocol import normalize_request

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


# -- /cache/peek ---------------------------------------------------------


def test_cache_peek_hits_only_after_a_real_request(client):
    task = normalize_request("advise", {
        "matrix": {"name": "banded_001", "collection": "tiny"},
        "setup": SETUP,
    })
    miss = client.cache_peek(task)
    assert miss["ok"] and miss["found"] is False

    envelope = client.advise(name="banded_001", collection="tiny", **SETUP)
    hit = client.cache_peek(task)
    assert hit["found"] is True
    assert hit["key"] == envelope["key"]
    assert hit["result"] == envelope["result"]
    assert hit["tier"] in ("memory", "disk")

    counters = client.metrics()["cache_peek"]
    assert counters.get("hit") == 1 and counters.get("miss") == 1


def test_inline_task_fills_from_its_previous_owner(server, client, tmp_path):
    """Peer fill with an inline matrix: the new owner sends its normalized
    task (matrix arrays and all) to the old owner's ``/cache/peek`` and
    serves the hit instead of evaluating."""
    matrix = banded(300, 4, 3, seed=11)
    first = client.advise(matrix=matrix, **SETUP)
    assert first["cached"] is None
    host, port = server.address
    hinted = {"matrix": matrix_payload(matrix), "setup": SETUP,
              "peer": {"host": host, "port": port}}
    config = ServiceConfig(jobs=1, cache_dir=str(tmp_path))
    with ServiceThread(config) as (new_host, new_port):
        with ServiceClient(new_host, new_port, timeout=60.0) as new_owner:
            filled = new_owner.request("POST", "/advise", hinted)
            assert filled["cached"] == "peer"
            assert filled["key"] == first["key"]
            assert filled["result"] == first["result"]
            assert new_owner.metrics()["peer_fill"] == {"hit": 1}
    # the normalized inline task peeks through the client as well
    task = normalize_request("advise", {"matrix": matrix_payload(matrix),
                                        "setup": SETUP})
    assert client.cache_peek(task)["found"] is True


def test_peer_answering_a_non_object_falls_back_to_evaluation(tmp_path,
                                                              json_stub):
    """A peek reply that is JSON but not an object is a failed fill: the
    replica counts it and evaluates, instead of answering 500."""
    peer_host, peer_port = json_stub({"/cache/peek": []})
    config = ServiceConfig(jobs=1, cache_dir=str(tmp_path))
    with ServiceThread(config) as (host, port):
        with ServiceClient(host, port, timeout=60.0) as replica:
            envelope = replica.request("POST", "/advise", {
                "matrix": {"name": "banded_001", "collection": "tiny"},
                "setup": SETUP, "peer": {"host": peer_host, "port": peer_port},
            })
            assert envelope["ok"] and envelope["cached"] is None
            assert envelope["result"] == replica.advise(
                name="banded_001", collection="tiny", **SETUP)["result"]
            assert replica.metrics()["peer_fill"] == {"error": 1}


def test_cache_peek_rejects_malformed_tasks(client):
    from repro.service.client import ServiceError

    with pytest.raises(ServiceError) as err:
        client.cache_peek({"endpoint": "nonsense"})
    assert err.value.status == 400
    with pytest.raises(ServiceError):
        client.request("POST", "/cache/peek", {"task": "not-an-object"})


def test_cache_peek_never_evaluates(client):
    """A peek for a never-requested matrix is a cheap miss, not a fresh
    evaluation (the whole point: peers peek before paying)."""
    task = normalize_request("advise", {
        "matrix": {"name": "stencil_2d_004", "collection": "tiny"},
        "setup": SETUP,
    })
    t0 = time.perf_counter()
    assert client.cache_peek(task)["found"] is False
    assert time.perf_counter() - t0 < 1.0
    # still a miss afterwards: nothing was admitted or computed
    assert client.cache_peek(task)["found"] is False


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
