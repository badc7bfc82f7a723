"""Shared fixtures: one in-process daemon per test module."""

import pytest

from repro.service import ServiceClient, ServiceConfig, ServiceThread

#: Small setup used throughout: modest thread count keeps MethodB traces tiny.
SETUP = {"num_threads": 8}


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """A running daemon (2 pool workers, per-request fault plans allowed)."""
    cache_dir = tmp_path_factory.mktemp("service_cache")
    thread = ServiceThread(
        ServiceConfig(jobs=2, cache_dir=str(cache_dir),
                      allow_fault_injection=True)
    )
    host, port = thread.start()
    yield thread
    thread.stop()


@pytest.fixture(scope="module")
def client(server):
    host, port = server.address
    return ServiceClient(host, port, timeout=120.0)
