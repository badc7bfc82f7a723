"""Ring membership driven by replica health probes and breaker state.

The gateway owns the one authoritative membership view — replicas never
gossip, so there is no split brain to reconcile.  A background probe
loop polls every *configured* replica:

* ``GET /healthz`` must answer ``{"ok": true}`` within the probe
  timeout, and
* the ``/metrics`` breaker snapshot must show **no open breaker** — an
  open breaker means the replica's own pool is refusing evaluations, so
  routing fresh keys at it only manufactures degraded answers.

``fail_after`` consecutive bad probes eject a replica from the ring;
one clean probe re-admits it.  The data path can also call
:meth:`MembershipController.mark_down` the moment a forward fails, so a
killed replica leaves the ring mid-burst instead of waiting out the
probe interval.

Each :class:`Replica` owns its idle keep-alive connections
(:class:`~repro.service.httpd.KeptAlive`): the gateway's forwards and
the probes share them, and ejection closes them.  A key that remaps
after a ring change is answered by its new owner from that replica's
own cache tiers or by a fresh evaluation.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Callable

from ..obs import events as obs_events
from ..resilience.breaker import OPEN
from ..service.httpd import CONNECTION_ERRORS, KeptAlive
from .ring import DEFAULT_VNODES, HashRing

__all__ = ["MembershipController", "Replica", "probe_replica"]


@dataclass
class Replica:
    """One configured replica and its probe ledger."""

    host: str
    port: int
    healthy: bool = True
    consecutive_failures: int = 0
    probes: int = 0
    last_error: str | None = None
    #: breaker states seen on the last successful /metrics probe
    breaker_states: dict = field(default_factory=dict)
    #: idle keep-alive sockets to this replica (forwards and probes)
    connections: KeptAlive = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.connections = KeptAlive(self.host, self.port)

    @property
    def node(self) -> str:
        return f"{self.host}:{self.port}"


async def _get_object(replica: Replica, path: str,
                      timeout: float) -> tuple[int, dict]:
    """One ``GET`` over the replica's connections; a body that is not a
    JSON object raises ``ValueError``."""
    status, raw, _ = await asyncio.wait_for(
        replica.connections.request("GET", path), timeout)
    answer = json.loads(raw or b"{}")
    if not isinstance(answer, dict):
        raise ValueError(f"expected a JSON object, got {type(answer).__name__}")
    return status, answer


async def probe_replica(replica: Replica, timeout: float = 2.0) -> dict:
    """One health probe: ``/healthz`` liveness plus breaker states.

    Returns ``{"ok": bool, "breakers": {endpoint: state}, "error": ...}``;
    never raises.
    """
    try:
        status, health = await _get_object(replica, "/healthz", timeout)
        if status != 200 or not health.get("ok"):
            return {"ok": False, "breakers": {},
                    "error": f"/healthz answered {status}: {health}"}
        status, metrics = await _get_object(replica, "/metrics", timeout)
        if status != 200:
            return {"ok": False, "breakers": {},
                    "error": f"/metrics answered {status}"}
    except (*CONNECTION_ERRORS, asyncio.TimeoutError) as exc:
        return {"ok": False, "breakers": {},
                "error": f"{type(exc).__name__}: {exc}"}
    breakers = {
        endpoint: snap.get("state", "closed")
        for endpoint, snap in metrics.get("breakers", {}).items()
    }
    return {"ok": True, "breakers": breakers, "error": None}


class MembershipController:
    """The gateway's authoritative replica set and its hash ring."""

    def __init__(
        self,
        replicas: list[tuple[str, int]],
        vnodes: int = DEFAULT_VNODES,
        fail_after: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not replicas:
            raise ValueError("at least one replica is required")
        if fail_after < 1:
            raise ValueError("fail_after must be positive")
        self.replicas = [Replica(host, port) for host, port in replicas]
        by_node: dict[str, Replica] = {}
        for replica in self.replicas:
            if replica.node in by_node:
                raise ValueError(f"duplicate replica {replica.node}")
            by_node[replica.node] = replica
        self._by_node = by_node
        self.fail_after = fail_after
        self._clock = clock
        self.ring = HashRing((r.node for r in self.replicas), vnodes=vnodes)
        self.events: list[dict] = []
        self.ejections = 0
        self.readmissions = 0

    # -- views ---------------------------------------------------------
    @property
    def alive(self) -> list[Replica]:
        return [r for r in self.replicas if r.healthy]

    def replica_for(self, node: str) -> Replica:
        return self._by_node[node]

    def owner(self, key: str) -> Replica | None:
        node = self.ring.owner(key)
        return None if node is None else self._by_node[node]

    def preference(self, key: str) -> list[Replica]:
        """Owner-first failover sequence of live replicas for a key."""
        return [self._by_node[node] for node in self.ring.preference(key)]

    # -- transitions ---------------------------------------------------
    def _record(self, event: str, replica: Replica, detail: str | None) -> None:
        self.events.append({
            "event": event,
            "replica": replica.node,
            "detail": detail,
            "at_seconds": self._clock(),
        })
        obs_events.emit(f"membership.{event}", replica=replica.node,
                        detail=detail, alive=len(self.alive))

    def _eject(self, replica: Replica, reason: str) -> None:
        # a replica out of the ring keeps no idle sockets, also when a
        # failed probe of an ejected replica has just parked one
        replica.connections.close()
        if not replica.healthy:
            return
        replica.healthy = False
        self.ring.remove(replica.node)
        self.ejections += 1
        self._record("ejected", replica, reason)

    def _readmit(self, replica: Replica) -> None:
        if replica.healthy:
            return
        replica.healthy = True
        replica.consecutive_failures = 0
        self.ring.add(replica.node)
        self.readmissions += 1
        self._record("readmitted", replica, None)

    def mark_down(self, node: str, reason: str = "forward failed") -> None:
        """Data-path ejection: a forward to this replica just failed."""
        replica = self._by_node.get(node)
        if replica is None:
            return
        replica.consecutive_failures += 1
        replica.last_error = reason
        self._eject(replica, reason)

    def observe_probe(self, replica: Replica, probe: dict) -> None:
        """Fold one :func:`probe_replica` result into the membership."""
        replica.probes += 1
        open_breakers = sorted(
            endpoint for endpoint, state in probe.get("breakers", {}).items()
            if state == OPEN
        )
        if probe.get("ok") and not open_breakers:
            replica.consecutive_failures = 0
            replica.last_error = None
            replica.breaker_states = dict(probe.get("breakers", {}))
            self._readmit(replica)
            return
        reason = (f"open breakers: {open_breakers}" if probe.get("ok")
                  else probe.get("error") or "probe failed")
        replica.consecutive_failures += 1
        replica.last_error = reason
        replica.breaker_states = dict(probe.get("breakers", {}))
        if replica.consecutive_failures >= self.fail_after:
            self._eject(replica, reason)

    async def probe_all(self, timeout: float = 2.0) -> None:
        """Probe every configured replica once, concurrently."""
        probes = await asyncio.gather(*(
            probe_replica(r, timeout) for r in self.replicas
        ))
        for replica, probe in zip(self.replicas, probes):
            self.observe_probe(replica, probe)

    # -- observability -------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "replicas": {
                r.node: {
                    "healthy": r.healthy,
                    "consecutive_failures": r.consecutive_failures,
                    "probes": r.probes,
                    "last_error": r.last_error,
                    "breakers": dict(r.breaker_states),
                }
                for r in self.replicas
            },
            "alive": len(self.alive),
            "total": len(self.replicas),
            "ejections": self.ejections,
            "readmissions": self.readmissions,
            "events": self.events[-32:],
            "ownership": self.ring.ownership_shares(1024),
        }
