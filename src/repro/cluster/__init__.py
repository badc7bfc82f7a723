"""Sharded advisor cluster: a consistent-hash gateway over N replicas.

The single :mod:`repro.service` daemon scales to one machine's pool.
This package lifts it into a multi-replica cluster without changing the
wire protocol:

* ``python -m repro.cluster --spawn 3`` starts three replica daemons
  plus a gateway; ``--replica host:port`` fronts already-running ones;
* the gateway consistent-hash routes each request's canonical sha256
  key (:class:`~repro.cluster.ring.HashRing`), so a key's cache entry
  lives on exactly one replica and repeat traffic stays warm;
* membership rides the existing health surface
  (:mod:`repro.cluster.membership`): a failed ``/healthz`` probe or an
  open circuit breaker ejects a replica with bounded key remapping,
  recovery re-admits it; a dead socket on the data path ejects
  immediately and the request fails over — zero lost requests;
* a key that remaps after a membership change is answered by its new
  owner from its own cache tiers or a fresh evaluation; a replica
  restarted with its disk tier intact is warm again for the keys that
  remap back to it;
* ``POST /batch`` streams a whole collection sweep back as NDJSON under
  a bounded in-flight window (:mod:`repro.cluster.batch`) — the paper's
  490-matrix study as one long-lived request with backpressure.

Any :class:`~repro.service.ServiceClient` works against the gateway;
routed responses are byte-identical to a direct single-daemon call.
"""

from .batch import BatchSpec, normalize_batch
from .gateway import ClusterGateway, GatewayConfig, GatewayThread, run_gateway
from .harness import ClusterHarness
from .membership import MembershipController, Replica, probe_replica
from .ring import DEFAULT_VNODES, HashRing

__all__ = [
    "BatchSpec",
    "ClusterGateway",
    "ClusterHarness",
    "DEFAULT_VNODES",
    "GatewayConfig",
    "GatewayThread",
    "HashRing",
    "MembershipController",
    "Replica",
    "normalize_batch",
    "probe_replica",
    "run_gateway",
]
