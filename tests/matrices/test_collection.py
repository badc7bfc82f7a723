"""Synthetic collection: determinism, stratification, Table-1 proxies."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import classify
from repro.machine import scaled_machine
from repro.matrices import TABLE1, collection, iter_matrices, table1_entry

MACHINE = scaled_machine(16)


def test_collection_sizes():
    assert len(collection("tiny")) == 12
    assert len(collection("small")) == 48
    with pytest.raises(ValueError):
        collection("medium")


def test_collection_is_deterministic():
    a = collection("tiny")
    b = collection("tiny")
    assert [s.name for s in a] == [s.name for s in b]
    ma = a[0].materialize()
    mb = b[0].materialize()
    np.testing.assert_array_equal(ma.colidx, mb.colidx)


def test_collection_names_are_unique():
    names = [s.name for s in collection("small")]
    assert len(names) == len(set(names))


def test_small_collection_spans_all_classes():
    specs = collection("small", machine=MACHINE)
    classes = set()
    for spec, matrix in zip(specs, iter_matrices(specs)):
        classes.add(classify(matrix, MACHINE, 5, num_cmgs=4).value)
    assert classes == {"1", "2", "3a", "3b"}


def test_stratification_mostly_hits_targets():
    specs = collection("small", machine=MACHINE)
    hits = 0
    for spec, matrix in zip(specs, iter_matrices(specs)):
        actual = classify(matrix, MACHINE, 5, num_cmgs=4).value
        hits += actual == spec.target_class
    assert hits >= 0.7 * len(specs)


def test_materialize_names_match_spec():
    spec = collection("tiny")[0]
    assert spec.materialize().name == spec.name


def test_table1_has_all_18_matrices():
    assert len(TABLE1) == 18
    names = [e.name for e in TABLE1]
    assert "pdb1HYS" in names and "ML_Geer" in names and "delaunay_n24" in names


def test_table1_entry_lookup():
    entry = table1_entry("pwtk")
    assert entry.rows == 218_000
    assert entry.gflops_paper == pytest.approx(87.3)
    with pytest.raises(KeyError):
        table1_entry("nonexistent")


def test_table1_proxies_preserve_nnz_per_row():
    for name in ("pdb1HYS", "Hamrle3", "delaunay_n24"):
        entry = table1_entry(name)
        proxy = entry.proxy(scale=256)
        ratio = (proxy.nnz / proxy.num_rows) / entry.nnz_per_row
        assert 0.3 < ratio < 3.0, f"{name}: nnz/row off by {ratio}"


def test_table1_proxy_scale_shrinks_size():
    entry = table1_entry("pwtk")
    small = entry.proxy(scale=512)
    smaller_rows = entry.rows // 512
    assert abs(small.num_rows - smaller_rows) < smaller_rows * 0.5
    with pytest.raises(ValueError):
        entry.proxy(scale=0)


_PROXY_DIGESTS = """
import hashlib, json
from repro.matrices import TABLE1
digests = {}
for entry in TABLE1:
    proxy = entry.proxy()
    digest = hashlib.sha256()
    for array in (proxy.rowptr, proxy.colidx, proxy.values):
        digest.update(array.tobytes())
    digests[entry.name] = digest.hexdigest()
print(json.dumps(digests))
"""


def test_table1_proxies_do_not_depend_on_the_hash_seed():
    """Every proxy is the same array in every process: its seed may not
    come from Python's per-process salted string hash."""
    src = Path(__file__).resolve().parents[2] / "src"

    def digests(hash_seed: str) -> dict:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-c", _PROXY_DIGESTS], env=env,
                             capture_output=True, text=True, check=True)
        return json.loads(out.stdout)

    first = digests("1")
    assert len(first) == len(TABLE1)
    assert first == digests("2")

