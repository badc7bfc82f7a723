#!/usr/bin/env python3
"""Dynamic-matrix smoke: the incremental reuse engine behind ``POST /delta``
against a live advisor daemon.

Launches ``python -m repro.service`` as a subprocess (``--jobs 1``, so
chained deltas land on the one worker holding the warm reuse state) and
drives the dynamic-matrix story end to end:

1. a base ``advise`` on a class-1 banded matrix, submitted inline, whose
   envelope ``"key"`` becomes the delta base;
2. a band-local edit batch through ``POST /delta``: the response must be
   **byte-identical** to re-submitting the edited matrix in full, priced
   on the ``incremental`` path, and report the accumulated drift;
3. a second batch chained off the *derived* key (``chain_length`` 2),
   patched against the worker's warm reuse state;
4. a repeat of the first delta, answered from the result cache without
   re-patching;
5. the failure modes: an insert of an existing edge (400 ``DeltaError``),
   an unknown base key (404), an empty batch (400), and a
   multi-threaded base falling back with reason ``threads`` — priced
   correctly, just not incrementally;
6. a class-3 (random) base and two chained batches of scattered edits:
   each patch overflows the budget, so both steps fall back with reason
   ``budget`` and report ``work > budget``, and both answers are
   byte-identical to re-submitting the edited matrix in full;
7. the ``/metrics`` delta families (``applied`` by path, ``fallback`` by
   reason, the drift histogram) and their Prometheus rendering;
8. a restart on the same ``--cache`` directory: the new daemon reads the
   derived key's stored record back from disk, revalidates it, and steps
   the chain to an answer byte-identical to a full re-submission.

Run:  python examples/delta_smoke.py
CI:   python examples/delta_smoke.py --selftest     (quiet, asserts only)
"""

import argparse
import contextlib
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.analysis.report import canonical_json
from repro.cluster.harness import launch_replica, stop_replica
from repro.delta import MatrixDelta
from repro.matrices.generators import banded, random_uniform
from repro.obs import parse_prometheus_text
from repro.service import ServiceClient
from repro.service.client import ServiceError

#: The incremental engine patches the single-thread Method B trace, so
#: the base request must be sequential; a parallel base falls back (the
#: smoke asserts exactly that in step 5).
SETUP = {"num_threads": 1, "scale": 16}


def launch_daemon(cache_dir: str):
    proc, host, port = launch_replica(["--jobs", "1", "--cache", cache_dir])
    return proc, ServiceClient(host, port, timeout=120.0)


def stop_daemon(proc, client):
    """Shut a daemon down (if it still answers) and reap its process group."""
    try:
        client.shutdown()
    except (OSError, ServiceError):
        pass
    client.close()
    with contextlib.suppress(subprocess.TimeoutExpired):
        proc.wait(timeout=30)
    stop_replica(proc)


def band_edits(matrix, rows):
    """One absent band-local insert and one existing delete per row.

    Neighbor inserts keep every dirtied reuse window short, which is
    what holds a class-1 edit batch inside the patch budget.
    """
    inserts, deletes = [], []
    for r in rows:
        cols = matrix.colidx[matrix.rowptr[r]:matrix.rowptr[r + 1]].tolist()
        colset = set(cols)
        ins = next(c for base in cols for c in (base + 1, base - 1,
                                                base + 2, base - 2)
                   if 0 <= c < matrix.num_cols and c not in colset)
        inserts.append([r, int(ins), 1.0])
        deletes.append([r, int(cols[0])])
    return inserts, deletes


def scattered_edits(matrix, rows, rng):
    """One absent insert at a random column and one existing delete per
    row: in a class-3 pattern every such edit sits inside reuse windows
    that span the trace, which is what overflows the patch budget."""
    inserts, deletes = [], []
    for r in rows:
        cols = set(matrix.colidx[matrix.rowptr[r]:matrix.rowptr[r + 1]].tolist())
        ins = next(c for c in rng.permutation(matrix.num_cols).tolist()
                   if c not in cols)
        inserts.append([r, int(ins), 1.0])
        deletes.append([r, min(cols)])
    return inserts, deletes


def expect_error(fn, status, error_type=None):
    try:
        fn()
    except ServiceError as exc:
        assert exc.status == status, (exc.status, status, exc.error)
        if error_type is not None:
            assert exc.error.get("type") == error_type, exc.error
        return exc
    raise AssertionError(f"expected a {status} ServiceError")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--selftest", action="store_true",
                        help="quiet mode for CI: asserts only")
    args = parser.parse_args()
    say = (lambda *_: None) if args.selftest else print

    matrix = banded(3_000, 8, 6, seed=1)
    batch1 = band_edits(matrix, [10, 500, 1500])
    batch2 = band_edits(matrix, [40, 900, 2200])
    batch3 = band_edits(matrix, [70, 1200, 2600])

    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = str(Path(tmp) / "cache")
        proc, client = launch_daemon(cache_dir)
        try:
            # -- 1. the base request: its key is the delta base ---------
            base = client.advise(matrix=matrix, **SETUP)
            assert base["ok"], base
            base_key = base["key"]
            say(f"base advise stored under key {base_key}")

            # -- 2. one edit batch, byte-identical to a full submit -----
            d1 = client.delta(base_key, inserts=batch1[0], deletes=batch1[1])
            assert d1["ok"], d1
            meta = d1["delta"]
            assert meta["base"] == base_key, meta
            assert meta["chain_length"] == 1, meta
            assert meta["path"] == "incremental", meta
            assert meta["edits"] == len(batch1[0]) + len(batch1[1]), meta
            assert 0.0 <= meta["drift"] < 1.0, meta
            edited = MatrixDelta.from_dict(
                {"inserts": batch1[0], "deletes": batch1[1]}
            ).apply(matrix).matrix
            full = client.advise(matrix=edited, **SETUP)
            assert d1["result"] == full["result"], \
                "delta answer diverged from the full re-submission"
            say(f"delta #1: path={meta['path']} drift={meta['drift']:.2e}, "
                "byte-identical to the full re-submission")

            # -- 3. a second batch chains off the derived key -----------
            d2 = client.delta(d1["key"], inserts=batch2[0],
                              deletes=batch2[1])
            assert d2["ok"], d2
            assert d2["delta"]["chain_length"] == 2, d2["delta"]
            assert d2["delta"]["path"] == "incremental", d2["delta"]
            assert d2["delta"]["state"] == "warm", (
                "chained delta should patch the worker's warm reuse state",
                d2["delta"],
            )
            assert d2["key"] != d1["key"] != base_key
            say(f"delta #2: chained to length 2 off {d1['key']}, "
                f"state={d2['delta']['state']}")

            # -- 4. a repeated batch is served from the cache -----------
            again = client.delta(base_key, inserts=batch1[0],
                                 deletes=batch1[1])
            assert again["ok"] and again["cached"] == "memory", again
            assert again["key"] == d1["key"]
            assert again["result"] == d1["result"]
            say("delta #1 repeated: served from the memory cache, same key")

            # -- 5. failure modes ---------------------------------------
            existing = [[7, int(matrix.colidx[matrix.rowptr[7]]), 1.0]]
            expect_error(
                lambda: client.delta(base_key, inserts=existing),
                400, "DeltaError",
            )
            expect_error(
                lambda: client.delta("0" * 32, inserts=batch1[0]),
                404,
            )
            expect_error(lambda: client.delta(base_key), 400)
            parallel = client.advise(matrix=matrix, num_threads=8, scale=16)
            fb = client.delta(parallel["key"], inserts=batch1[0],
                              deletes=batch1[1])
            assert fb["ok"], fb
            assert fb["delta"]["path"] == "fallback", fb["delta"]
            assert fb["delta"]["reason"] == "threads", fb["delta"]
            assert fb["result"], fb
            say("failure modes: DeltaError 400, unknown base 404, empty "
                "batch 400; parallel base fell back "
                f"(reason={fb['delta']['reason']}) but still answered")

            # -- 6. a class-3 chain overflows the budget at every step --
            class3 = random_uniform(3_000, 6, seed=5)
            rng = np.random.default_rng(3)
            key = client.advise(matrix=class3, **SETUP)["key"]
            for step in (1, 2):
                rows = sorted(rng.choice(class3.num_rows, 8,
                                         replace=False).tolist())
                inserts, deletes = scattered_edits(class3, rows, rng)
                d = client.delta(key, inserts=inserts, deletes=deletes)
                assert d["ok"], d
                meta = d["delta"]
                assert meta["chain_length"] == step, meta
                assert meta["path"] == "fallback", meta
                assert meta["reason"] == "budget", meta
                assert meta["work"] > meta["budget"], meta
                class3 = MatrixDelta.from_dict(
                    {"inserts": inserts, "deletes": deletes}
                ).apply(class3).matrix
                full = client.advise(matrix=class3, **SETUP)
                assert canonical_json(d["result"]) == canonical_json(
                    full["result"]), \
                    "class-3 delta diverged from the full re-submission"
                key = d["key"]
                say(f"class-3 delta #{step}: reason={meta['reason']} "
                    f"work={meta['work']} > budget={meta['budget']}, "
                    "byte-identical to the full re-submission")

            # -- 7. the delta metric families ---------------------------
            snapshot = client.metrics()["delta"]
            applied = snapshot["applied"].get("advise", {})
            assert applied.get("incremental", 0) >= 2, snapshot
            fallback = snapshot["fallback"].get("advise", {})
            assert fallback.get("threads", 0) >= 1, snapshot
            assert snapshot["drift"]["count"] >= 2, snapshot
            samples = parse_prometheus_text(
                client.metrics(format="prometheus"))
            assert samples["repro_delta_applied_total"]
            budget_fallbacks = sum(
                value for labels, value in samples["repro_delta_fallback_total"]
                if labels.get("reason") == "budget")
            assert budget_fallbacks >= 2, samples["repro_delta_fallback_total"]
            say(f"metrics: applied={snapshot['applied']} "
                f"fallback={snapshot['fallback']} "
                f"drift count={snapshot['drift']['count']}")

            # -- 8. a restart steps the chain from its disk record ------
            stop_daemon(proc, client)
            proc, client = launch_daemon(cache_dir)
            d3 = client.delta(d2["key"], inserts=batch3[0],
                              deletes=batch3[1])
            assert d3["ok"] and d3["cached"] is None, d3
            assert d3["delta"]["chain_length"] == 3, d3["delta"]
            assert d3["delta"]["path"] == "incremental", d3["delta"]
            thrice = edited
            for batch in (batch2, batch3):
                thrice = MatrixDelta.from_dict(
                    {"inserts": batch[0], "deletes": batch[1]}
                ).apply(thrice).matrix
            full = client.advise(matrix=thrice, **SETUP)
            assert canonical_json(d3["result"]) == canonical_json(
                full["result"]), \
                "delta after a restart diverged from the full re-submission"
            say(f"restart: delta #3 off the disk-held key {d2['key']}, "
                "byte-identical to the full re-submission")
        finally:
            stop_daemon(proc, client)

    if args.selftest:
        print("delta_smoke selftest: OK")
    else:
        print("delta smoke: all assertions passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
