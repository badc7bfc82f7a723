"""MembershipController transitions driven by synthetic probes."""

import asyncio

import pytest

from repro.cluster.membership import MembershipController, Replica, probe_replica
from repro.service import ServiceConfig, ServiceThread

REPLICAS = [("127.0.0.1", 9001), ("127.0.0.1", 9002), ("127.0.0.1", 9003)]

GOOD = {"ok": True, "breakers": {"advise": "closed"}, "error": None}
DEAD = {"ok": False, "breakers": {}, "error": "ConnectionRefusedError: ..."}
OPEN_BREAKER = {"ok": True, "breakers": {"advise": "open"}, "error": None}


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def membership(clock):
    return MembershipController(REPLICAS, clock=clock)


def test_constructor_validation():
    with pytest.raises(ValueError):
        MembershipController([])
    with pytest.raises(ValueError):
        MembershipController(REPLICAS, fail_after=0)
    with pytest.raises(ValueError):
        MembershipController([("h", 1), ("h", 1)])


def test_starts_fully_alive(membership):
    assert len(membership.alive) == 3
    assert membership.owner("some-key") is not None
    snap = membership.snapshot()
    assert snap["alive"] == snap["total"] == 3


def test_failed_probe_ejects_and_clean_probe_readmits(membership):
    victim = membership.replicas[0]
    membership.observe_probe(victim, DEAD)
    assert not victim.healthy
    assert membership.ejections == 1
    assert victim.node not in membership.ring
    assert len(membership.alive) == 2

    membership.observe_probe(victim, GOOD)
    assert victim.healthy
    assert membership.readmissions == 1
    assert victim.node in membership.ring
    assert victim.consecutive_failures == 0


def test_probe_of_a_non_object_healthz_fails_without_raising(json_stub):
    """A ``/healthz`` that is JSON but not an object is a failed probe, not
    an exception that would end the gateway's probe loop."""
    host, port = json_stub({"/healthz": []})
    probe = asyncio.run(probe_replica(Replica(host, port), timeout=5.0))
    assert probe["ok"] is False and probe["breakers"] == {}
    assert probe["error"].startswith("ValueError")


def test_probes_of_a_live_replica_share_one_kept_alive_socket():
    async def probe_twice(replica):
        probes = [await probe_replica(replica) for _ in range(2)]
        idle = len(replica.connections._idle)
        replica.connections.close()
        return probes, idle

    with ServiceThread(ServiceConfig(jobs=1, cache_dir=None)) as (host, port):
        probes, idle = asyncio.run(probe_twice(Replica(host, port)))
    for probe in probes:
        assert probe["ok"] is True and probe["error"] is None
        assert probe["breakers"]["advise"] == "closed"
    assert idle == 1


def test_open_breaker_ejects_even_when_healthz_is_ok(membership):
    victim = membership.replicas[1]
    membership.observe_probe(victim, OPEN_BREAKER)
    assert not victim.healthy
    assert "open breakers" in victim.last_error


def test_fail_after_requires_consecutive_failures(clock):
    membership = MembershipController(REPLICAS, fail_after=2, clock=clock)
    victim = membership.replicas[0]
    membership.observe_probe(victim, DEAD)
    assert victim.healthy  # one strike
    membership.observe_probe(victim, GOOD)
    membership.observe_probe(victim, DEAD)
    assert victim.healthy  # the clean probe reset the count
    membership.observe_probe(victim, DEAD)
    assert not victim.healthy


def test_mark_down_ejects_immediately(membership):
    victim = membership.replicas[2]
    membership.mark_down(victim.node, reason="forward failed")
    assert not victim.healthy
    assert membership.ejections == 1
    membership.mark_down("unknown:1")  # unknown nodes are ignored
    assert membership.ejections == 1


def test_snapshot_records_events_and_ownership(membership):
    victim = membership.replicas[0]
    membership.mark_down(victim.node)
    snap = membership.snapshot()
    assert snap["ejections"] == 1
    assert snap["events"][-1]["event"] == "ejected"
    assert snap["events"][-1]["replica"] == victim.node
    assert victim.node not in snap["ownership"]
    assert abs(sum(snap["ownership"].values()) - 1.0) < 1e-9
