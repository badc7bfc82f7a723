"""The ``cluster`` experiment: a sharded-advisor tour on one machine.

Spins up a gateway plus N replica daemons in-process
(:class:`repro.cluster.ClusterHarness`), streams a whole collection
through ``POST /batch``, then demonstrates the cluster's operational
story end to end:

1. **cold pass** — every matrix routed by its request key; the routing
   table shows how the consistent-hash ring spreads the collection;
2. **warm pass** — the same batch again; every answer now comes from
   the owning replica's memory tier;
3. **failover** — one replica is killed and the batch repeated; the
   gateway ejects it on the first dead socket and fails the affected
   keys over (zero lost requests), while unaffected keys stay warm;
4. **recovery** — the replica restarts with its disk tier intact and is
   re-admitted; the keys that remap back to it are answered from that
   disk tier, and only the keys it never held are evaluated.

Run via ``python -m repro.experiments --exp cluster`` (opt-in, not part
of ``all``); ``--replicas`` and ``--window`` tune the topology.
"""

from __future__ import annotations

import time

from ..cluster import ClusterHarness
from ..matrices.collection import collection
from ..obs.tracer import get_tracer, span
from ..obs.tree import TraceTree
from .common import ExperimentSetup


def _batch_pass(client, names: list[str], collection_name: str,
                setup_fields: dict, window: int) -> dict:
    """One streamed batch; returns counts plus elapsed seconds."""
    items = [{"name": name, "collection": collection_name} for name in names]
    started = time.perf_counter()
    lines = list(client.batch("advise", items, window=window,
                              setup=setup_fields))
    elapsed = time.perf_counter() - started
    summary = lines[-1]["batch"]
    tiers: dict[str, int] = {}
    for line in lines[:-1]:
        tier = line.get("cached") or ("error" if not line.get("ok") else "fresh")
        tiers[tier] = tiers.get(tier, 0) + 1
    return {"ok": summary["ok"], "errors": summary["errors"],
            "elapsed_seconds": elapsed, "tiers": tiers}


def run_cluster(
    collection_name: str,
    setup: ExperimentSetup,
    replicas: int = 3,
    window: int = 8,
    limit: int | None = None,
    verbose: bool = False,
) -> dict:
    """The four-pass cluster tour; returns a summary dict for rendering."""
    specs = collection(collection_name, machine=setup.machine())
    if limit is not None:
        specs = specs[:limit]
    names = [spec.name for spec in specs]
    setup_fields = {"num_threads": setup.num_threads, "scale": setup.scale}

    summary: dict = {"replicas": replicas, "window": window,
                     "matrices": len(names)}
    with ClusterHarness(replicas=replicas, jobs=1,
                        gateway_config={"probe_interval_seconds": 0.3}) as h:
        client = h.client()
        for label in ("cold", "warm"):
            with span("cluster.pass", label=label):
                summary[label] = _batch_pass(client, names, collection_name,
                                             setup_fields, window)
            if verbose:
                print(f"  {label} pass: {summary[label]}")

        victim = 0
        h.kill_replica(victim)
        with span("cluster.pass", label="failover"):
            summary["failover"] = _batch_pass(client, names, collection_name,
                                              setup_fields, window)
        metrics = client.metrics()
        summary["failover"]["gateway"] = {
            "failovers": metrics["failovers"],
            "exhausted": metrics["exhausted"],
            "alive": metrics["membership"]["alive"],
        }
        if verbose:
            print(f"  failover pass: {summary['failover']}")

        h.restart_replica(victim)
        h.wait_alive(replicas)
        with span("cluster.pass", label="recovery"):
            summary["recovery"] = _batch_pass(client, names, collection_name,
                                              setup_fields, window)
        metrics = client.metrics()
        summary["recovery"]["gateway"] = {
            "readmissions": metrics["membership"]["readmissions"],
        }
        summary["routing"] = metrics["routed"].get("advise", {})

        # under --trace, fold one distributed trace into the run's tree:
        # a fresh traced request through the gateway comes back with ONE
        # merged tree (gateway.route -> gateway.forward -> the winning
        # replica's service.request -> pool.evaluate -> worker evaluate),
        # adopted here so the written trace spans gateway and replicas
        tracer = get_tracer()
        if tracer is not None:
            with tracer.span("cluster.traced_probe", matrix=names[0]):
                envelope = client.predict(
                    name=names[0], collection=collection_name,
                    policies=[{"l2_sector1_ways": 4}], trace=True,
                    **setup_fields,
                )
                if envelope.get("trace"):
                    tracer.adopt(TraceTree.from_dict(envelope["trace"]))
            summary["traced_probe"] = {
                "matrix": names[0],
                "merged_trace": envelope.get("trace") is not None,
            }
        if verbose:
            print(f"  recovery pass: {summary['recovery']}")
        client.close()
    return summary


def render_cluster(summary: dict) -> str:
    """The tour as a compact operator-readable report."""
    lines = [
        f"Sharded advisor cluster: {summary['replicas']} replicas, "
        f"batch window {summary['window']}, "
        f"{summary['matrices']} matrices",
        f"{'pass':<10} {'ok':>4} {'errors':>7} {'seconds':>9}  served from",
    ]
    for label in ("cold", "warm", "failover", "recovery"):
        entry = summary[label]
        tiers = " ".join(f"{tier}:{count}" for tier, count
                         in sorted(entry["tiers"].items()))
        lines.append(
            f"{label:<10} {entry['ok']:>4} {entry['errors']:>7} "
            f"{entry['elapsed_seconds']:>9.3f}  {tiers}"
        )
    gateway = summary["failover"]["gateway"]
    lines.append(
        f"failover: {gateway['failovers']} forward(s) retried, "
        f"{gateway['exhausted']} lost, {gateway['alive']} replicas left"
    )
    recovery = summary["recovery"]["gateway"]
    lines.append(f"recovery: {recovery['readmissions']} readmission(s)")
    lines.append("routing (advise forwards per replica): " + " ".join(
        f"{node}:{count}" for node, count in sorted(summary["routing"].items())
    ))
    return "\n".join(lines)
