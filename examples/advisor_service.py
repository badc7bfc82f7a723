#!/usr/bin/env python3
"""Advisor service tour: daemon, client, coalescing and the cache tiers.

Launches ``python -m repro.service`` as a subprocess on an ephemeral
port, then walks the client through the daemon's behaviour:

1. an ``advise`` call (the class-(2) wide-band matrix) and its verdict,
2. the same call again — served from the memory tier, and once more
   spelled as shuffled COO with every entry twice (a COO body is held as
   the CSR spec of its distinct entries, so it shares the key),
3. four *concurrent* duplicate calls on a fresh matrix, two of them
   spelled with ``values`` (the model reads the pattern only, so every
   spelling shares one key) — the daemon performs exactly one model
   evaluation (in-flight coalescing plus the result cache absorb the
   other three, asserted via ``/metrics``),
4. a ``/metrics`` scrape, and a clean ``/shutdown``.

Run:  python examples/advisor_service.py
CI:   python examples/advisor_service.py --selftest   (quiet, asserts only)
"""

import argparse
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.cluster.harness import launch_replica, stop_replica
from repro.core.advisor import Recommendation
from repro.matrices import banded
from repro.service import ServiceClient, matrix_payload


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--selftest", action="store_true",
                        help="quiet run for CI; exit non-zero on any mismatch")
    args = parser.parse_args()
    say = (lambda *_: None) if args.selftest else print

    with tempfile.TemporaryDirectory(prefix="advisor-service-") as cache_dir:
        proc, host, port = launch_replica(["--jobs", "2", "--cache", cache_dir])
        client = ServiceClient(host, port, timeout=120.0)
        try:
            say(f"daemon up at http://{client.host}:{client.port} "
                f"(cache: {cache_dir})\n")

            # -- one advise call --------------------------------------
            matrix = banded(26_000, 2_500, 11, seed=3)
            envelope = client.advise(matrix, num_threads=48)
            assert envelope["ok"] and envelope["cached"] is None
            rec = Recommendation.from_dict(envelope["result"])
            say("== advise: class-(2) wide band ==")
            say(rec.summary())

            # -- the memory tier --------------------------------------
            again = client.advise(matrix, num_threads=48)
            assert again["cached"] == "memory"
            assert again["result"] == envelope["result"]
            say("\nsame request again: served from the "
                f"{again['cached']!r} tier")

            # -- one pattern, one key: a COO spelling of the same matrix
            rows = np.repeat(np.arange(matrix.num_rows), np.diff(matrix.rowptr))
            order = np.random.default_rng(0).permutation(2 * matrix.nnz)
            coo = {"coo": {
                "num_rows": matrix.num_rows, "num_cols": matrix.num_cols,
                "rows": np.tile(rows, 2)[order].tolist(),
                "cols": np.tile(matrix.colidx, 2)[order].tolist()}}
            spelled = client.advise(coo, num_threads=48)
            assert spelled["key"] == envelope["key"]
            assert spelled["cached"] == "memory"
            assert spelled["result"] == envelope["result"]
            say("shuffled COO, every entry twice: same key, served from the "
                f"{spelled['cached']!r} tier")

            # -- coalescing: 4 concurrent duplicates, 1 evaluation ----
            other = banded(1_200, 40, 9, seed=5)
            pattern = matrix_payload(other)["csr"]
            spellings = [other, other,
                         {"csr": dict(pattern, values=other.values.tolist())},
                         {"csr": dict(pattern, values=[0.0] * other.nnz)}]
            before = client.metrics()["evaluations"].get("advise", 0)
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(client.advise, spelling, num_threads=8)
                           for spelling in spellings]
                envelopes = [f.result() for f in futures]
            after = client.metrics()["evaluations"].get("advise", 0)
            assert after - before == 1, (
                f"expected 1 evaluation for 4 duplicates, got {after - before}"
            )
            assert len({e["key"] for e in envelopes}) == 1
            tiers = sorted(str(e["cached"]) for e in envelopes)
            say("\n4 concurrent duplicate requests (2 spelled with values) "
                "-> 1 evaluation "
                f"(served as: {', '.join(tiers)})")

            # -- metrics ----------------------------------------------
            metrics = client.metrics()
            assert metrics["requests"]["advise"]["ok"] >= 6
            assert metrics["workers"]["restarts"] == 0
            say("\n== /metrics ==")
            say(f"requests: {metrics['requests']}")
            say(f"evaluations: {metrics['evaluations']}  "
                f"coalesced: {metrics['coalesced']}")
            say(f"memory tier: {metrics['cache']['memory']['hits']} hits, "
                f"{metrics['cache']['memory']['bytes']} bytes held")
            hist = metrics["latency_seconds"]["advise"]
            say(f"advise latency: n={hist['count']}, "
                f"mean={hist['sum_seconds'] / hist['count']:.3f}s")

            # -- clean shutdown ---------------------------------------
            assert client.shutdown()["ok"]
            assert proc.wait(timeout=30) == 0, "daemon exited uncleanly"
            say("\ndaemon shut down cleanly")
        finally:
            stop_replica(proc)
    if args.selftest:
        print("advisor_service selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
