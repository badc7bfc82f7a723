#!/usr/bin/env python3
"""Reordering-optimizer tour: the ``/optimize`` endpoint end to end.

Launches ``python -m repro.service`` as a subprocess on an ephemeral
port, then walks the client through the reordering search:

1. an ``optimize`` call on a class-3 matrix (a banded pattern hidden
   behind a random symmetric shuffle) — the search screens candidates
   with tier-0/1 ladder answers and confirms a strictly positive
   improvement with the exact tier-2 pass,
2. the same call again — served from the cache, byte-identical,
3. a different seed — a *different* cache key (search config is keyed),
4. the tier-0 gate: a clean banded matrix short-circuits to identity,
5. ``/metrics``: per-strategy outcomes, the improvement histogram, and
   the ladder counters proving no exact pass ran before confirmation.

Run:  python examples/optimize_tour.py
CI:   python examples/optimize_tour.py --selftest   (quiet, asserts only)
"""

import argparse
import dataclasses
import sys
import tempfile

import numpy as np

from repro.cluster.harness import launch_replica, stop_replica
from repro.matrices import banded
from repro.service import ServiceClient

#: one-CMG setup at 1/64 machine scale: small matrices, all classes reachable
SETUP = {"scale": 64, "num_threads": 8}


def shuffled_band():
    """A banded matrix whose structure a random shuffle has hidden."""
    base = banded(12_000, 24, 6, seed=3)
    perm = np.random.default_rng(7).permutation(base.num_rows).astype(np.int64)
    return dataclasses.replace(base.permute(perm, perm), name="shuffled_band")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--selftest", action="store_true",
                        help="quiet run for CI; exit non-zero on any mismatch")
    args = parser.parse_args()
    say = (lambda *_: None) if args.selftest else print

    with tempfile.TemporaryDirectory(prefix="optimize-tour-") as cache_dir:
        proc, host, port = launch_replica(["--jobs", "2", "--cache", cache_dir])
        client = ServiceClient(host, port, timeout=300.0)
        try:
            say(f"daemon up at http://{client.host}:{client.port} "
                f"(cache: {cache_dir})\n")

            # -- the search on a class-3 shuffled band -----------------
            matrix = shuffled_band()
            envelope = client.optimize(matrix, seed=0, **SETUP)
            assert envelope["ok"] and envelope["cached"] is None
            result = envelope["result"]
            confirmation = result["confirmation"]
            assert confirmation["improvement"] > 0, confirmation
            assert confirmation["after_misses"] < confirmation["before_misses"]
            say("== optimize: shuffled band (hidden class-3 structure) ==")
            say(f"winner: {result['winner']['label']}")
            say(f"confirmed misses: {confirmation['before_misses']} -> "
                f"{confirmation['after_misses']} "
                f"({confirmation['improvement']:+.1%})")
            for entry in result["strategies"]:
                say(f"  {entry['label']:<16} {entry['status']:<14} "
                    f"screened={entry['screened_misses']}")

            # the search screened at tiers 0/1; tier 2 ran exactly twice
            # (the before/after confirmation), never during screening
            answers = envelope["fidelity"]["ladder_answers"]
            assert answers.get("2") == 2, answers
            assert answers.get("1", 0) > 0, answers
            say(f"ladder answers: {answers} "
                "(tier 2 = the confirmation only)")

            # -- cache: same config hits, different seed misses --------
            again = client.optimize(matrix, seed=0, **SETUP)
            assert again["cached"] == "memory"
            assert again["result"] == result
            other_seed = client.optimize(matrix, seed=1, **SETUP)
            assert other_seed["key"] != envelope["key"]
            say(f"\nsame search again: served from the {again['cached']!r} "
                "tier; a different seed is a different key")

            # -- the tier-0 gate ---------------------------------------
            clean = banded(2_000, 16, 4, seed=2)
            gated = client.optimize(clean, **SETUP)
            assert gated["fidelity"]["gated"], gated["fidelity"]
            assert gated["result"]["winner"]["label"] == "identity"
            say("\nclean banded matrix: tier-0 gate short-circuits "
                "(x already fits its partition; identity wins unsearched)")

            # -- metrics -----------------------------------------------
            metrics = client.metrics()
            statuses = metrics["optimize"]["strategies"]
            assert statuses["identity"], statuses
            hist = metrics["optimize"]["improvement"]
            assert hist["count"] >= 3, hist
            ladder = metrics["ladder"]["answers"]["optimize"]
            assert ladder.get("1", 0) > 0 and ladder.get("2", 0) >= 4, ladder
            say("\n== /metrics ==")
            say(f"per-strategy outcomes: {statuses}")
            say(f"improvement histogram: n={hist['count']}")
            say(f"ladder answers (optimize): {ladder}")

            # -- clean shutdown ----------------------------------------
            assert client.shutdown()["ok"]
            assert proc.wait(timeout=30) == 0, "daemon exited uncleanly"
            say("\ndaemon shut down cleanly")
        finally:
            stop_replica(proc)
    if args.selftest:
        print("optimize_tour selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
