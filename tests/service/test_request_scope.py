"""The server shell's request scope: every ``POST`` finished exactly once.

A ``POST`` on either server is timed, traced and finished at one point
in :mod:`repro.service.httpd`.  Pinned here: an exception escaping a
handler is a counted, logged, traced 500 ``InternalError`` (never a
dropped connection or a trace stuck in flight), a body that is not JSON
is counted and logged like every other rejection, and a cancelled
request leaves no in-flight trace behind.
"""

import asyncio
import http.client
import json
import shutil

import pytest

from repro.cluster.gateway import ClusterGateway, GatewayConfig
from repro.service import ServiceClient, ServiceConfig, ServiceError, ServiceThread

from .conftest import SETUP


def _events(path, name):
    return [entry for entry in map(json.loads, path.read_text().splitlines())
            if entry["event"] == name]


def test_escaping_handler_error_is_a_counted_traced_500(tmp_path):
    cache_dir = tmp_path / "cache"
    log_path = tmp_path / "events.jsonl"
    config = ServiceConfig(jobs=1, cache_dir=str(cache_dir),
                           event_log_path=str(log_path))
    with ServiceThread(config) as (host, port):
        client = ServiceClient(host, port, timeout=120.0)
        # the disk tier vanishes under the daemon: the cache write after
        # a fresh evaluation raises OSError inside the handler
        shutil.rmtree(cache_dir)
        with pytest.raises(ServiceError) as err:
            client.sweep(name="banded_001", collection="tiny", trace=True,
                         l2_way_options=[0, 5], l1_way_options=[0], **SETUP)
        assert err.value.status == 500
        assert err.value.error["type"] == "InternalError"
        metrics = client.metrics()
        debug = client.request("GET", "/debug/traces?endpoint=sweep")
        client.close()
    assert metrics["requests"]["sweep"] == {"error": 1}
    assert debug["in_flight"] == []
    finished, = debug["traces"]
    assert finished["status"] == "error"
    assert finished["tree"]["roots"][0]["name"] == "service.request"
    request, = _events(log_path, "request")
    assert request["fields"]["status"] == "error"
    assert request["fields"]["endpoint"] == "sweep"
    assert request["fields"]["error"] == "FileNotFoundError"
    assert request["trace_id"] == finished["trace_id"]


def test_bad_json_is_counted_and_logged_as_a_rejection(tmp_path):
    log_path = tmp_path / "events.jsonl"
    config = ServiceConfig(jobs=1, cache_dir=None,
                           event_log_path=str(log_path))
    with ServiceThread(config) as (host, port):
        conn = http.client.HTTPConnection(host, port, timeout=30)
        conn.request("POST", "/classify", body=b"{not json",
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        envelope = json.loads(response.read())
        conn.close()
        client = ServiceClient(host, port, timeout=30.0)
        metrics = client.metrics()
        client.close()
    assert response.status == 400
    assert envelope["error"]["type"] == "BadJSON"
    assert metrics["requests"]["classify"] == {"error": 1}
    request, = _events(log_path, "request")
    assert request["fields"]["status"] == "rejected"
    assert request["fields"]["endpoint"] == "classify"


def _gateway(route_task):
    """An in-process gateway whose forwarding is ``route_task``."""
    gateway = ClusterGateway(GatewayConfig(replicas=(("127.0.0.1", 9),),
                                           probe_interval_seconds=0))
    gateway.route_task = route_task
    return gateway


def _classify_body():
    return json.dumps({"matrix": {"name": "banded_001", "collection": "tiny"},
                       "setup": SETUP, "trace": True}).encode()


def test_gateway_answers_an_escaping_error_as_internal_error():
    async def broken(*args, **kwargs):
        raise RuntimeError("ring exploded")

    async def scenario():
        gateway = _gateway(broken)
        status, payload, _ = await gateway.handle_request(
            "POST", "/classify", _classify_body())
        return gateway, status, payload

    gateway, status, payload = asyncio.run(scenario())
    assert status == 500
    assert payload["error"] == {"type": "InternalError",
                                "message": "RuntimeError: ring exploded"}
    snapshot = gateway.traces.snapshot()
    assert snapshot["in_flight"] == []
    assert [entry["status"] for entry in snapshot["traces"]] == ["error"]
    metrics = gateway.metrics_snapshot()
    assert metrics["latency_seconds"]["classify"]["count"] == 1
    assert metrics["bad_requests"] == 0


def test_cancelled_request_drops_its_in_flight_trace():
    entered = asyncio.Event()

    async def parked(*args, **kwargs):
        entered.set()
        await asyncio.sleep(3600)

    async def scenario():
        gateway = _gateway(parked)
        task = asyncio.ensure_future(gateway.handle_request(
            "POST", "/classify", _classify_body()))
        await entered.wait()
        assert len(gateway.traces.snapshot()["in_flight"]) == 1
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task
        return gateway

    gateway = asyncio.run(scenario())
    snapshot = gateway.traces.snapshot()
    assert snapshot["in_flight"] == [] and snapshot["traces"] == []
    assert "classify" not in gateway.metrics_snapshot()["latency_seconds"]
