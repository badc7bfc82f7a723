"""Request keys, matrix names and registry records, pinned byte for byte.

Disk caches, clients' stored base keys and ring placement all hash these
bytes, so they must survive any change to how a task is held in memory
(inline matrices ride as NumPy arrays) or encoded.  The expected values
were captured from the list-based encoder; each record is pinned by its
SHA-256 and length.
"""

import hashlib

import pytest

from repro.analysis.report import canonical_json
from repro.matrices import banded
from repro.service.client import matrix_payload
from repro.service.protocol import (
    derive_delta_task,
    keyed_form,
    matrix_name,
    normalize_delta,
    normalize_request,
    request_key,
)
from repro.service.registry import TaskRegistry

#: label -> (request key, matrix name, sha256 of the stored record, length)
GOLDEN = {
    "csr_values": (
        "157b897cf379ed11c58e83a5bb67bbd8", "inline-ba2ef5660e06",
        "d97e4afdd812d5bfb31011a7ba061ab318a782ef7e959a960a4f917fc6671da0", 702),
    "csr_bare": (
        "92c7b14dafd68fb3a88a7b12c289c4c5", "inline-171919884311",
        "a3137fe9d613df3a034e7fa10550b54ef84a796c0917711e086357234b93c43e", 530),
    "csr_mixed_values": (
        "dac6563e9e930bed3c53c50e5389f0dc", "inline-69bfe3f4ca31",
        "859a2c9401b8ee06b5e140d62a4b6b45cdfcbe1e8bfd25e7e64635cb60363155", 652),
    "coo_dups": (
        "e404d5c8e574865d5d5b279199bbd9bd", "inline-d7164595272d",
        "ff2e1818cdbc7457974a9e136c19382d4cef94a5d0455e5e74db77af288f204a", 355),
    "named": (
        "8639ec358b20cc963aee010ba37a5d3f", "banded_001",
        "688ed6f735dfe2c0dbec6db6a63a3e306a2f5e263e2d0fb1bce80be020df1e29", 337),
    "delta_1": (
        "a5ccf980ee616c36aec6118f9f6cc93e", "delta-0def8b896241",
        "6600831f1fbf08b2a97b55cae865468dac6b24f98238dc3635d39c41dc9dbe6a", 792),
    "delta_2": (
        "875670e5e655b74c16a8620790fd09ad", "delta-44306e43f4f3",
        "8f3e78d1a6475dce30b76d5587e3420f084e4245df53c353f84801a1436a2382", 830),
}


def _corpus() -> dict:
    m = banded(24, 3, 2, seed=3)
    csr = matrix_payload(m)
    bare = {"csr": {k: v for k, v in csr["csr"].items() if k != "values"}}
    # ints and floats mixed in values: ints encode as floats ("2" -> 2.0)
    mixed = dict(csr["csr"],
                 values=[0.1, -2, 1e-300, 3.5, 7] + csr["csr"]["values"][5:])
    tasks = {
        "csr_values": normalize_request("advise", {
            "matrix": csr, "setup": {"num_threads": 4}}),
        "csr_bare": normalize_request("predict", {
            "matrix": bare, "timeout": 9.0,
            "policies": [{"l2_sector1_ways": 3}]}),
        "csr_mixed_values": normalize_request("classify", {
            "matrix": {"csr": mixed}}),
        # duplicate (0, 1) entries; a float row and a numeric-string column
        # take the per-element coercion path
        "coo_dups": normalize_request("classify", {"matrix": {"coo": {
            "num_rows": 5, "num_cols": 6, "rows": [0, 4, 0, 2, 2, 3.0],
            "cols": [1, 5, 1, 0, 3, "4"],
            "values": [1, 2.5, -1, 1e10, 0.25, 3]}}}),
        "named": normalize_request("advise", {
            "matrix": {"name": "banded_001", "collection": "tiny"},
            "accuracy": 0.5}),
    }
    base = tasks["csr_values"]
    step1 = derive_delta_task(keyed_form(base), normalize_delta({
        "base": request_key(base),
        "delta": {"inserts": [[0, 20, 2.0], [5, 17]], "deletes": [[1, 0]]}}),
        65536)
    step2 = derive_delta_task(keyed_form(step1), normalize_delta({
        "base": request_key(step1),
        "delta": {"inserts": [[23, 0, 0.5]]}, "max_tier": 2}), 100)
    tasks["delta_1"] = step1
    tasks["delta_2"] = step2
    return tasks


CORPUS = _corpus()


def _digest(text: str) -> tuple[str, int]:
    return hashlib.sha256(text.encode()).hexdigest(), len(text)


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_key_name_and_record_are_byte_stable(label):
    task = CORPUS[label]
    key, name, record_sha, record_len = GOLDEN[label]
    assert request_key(task) == key
    assert matrix_name(task) == name
    assert _digest(canonical_json(keyed_form(task))) == (record_sha, record_len)


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_registry_file_bytes_are_byte_stable(label, tmp_path):
    task = CORPUS[label]
    key, _, record_sha, record_len = GOLDEN[label]
    # the daemon's path: the key's own encoding is the stored record
    computed, record = request_key(task, with_record=True)
    assert computed == key
    TaskRegistry(tmp_path).put(key, task, record)
    text = (tmp_path / f"{key}.task.json").read_text()
    assert _digest(text) == (record_sha, record_len)
    # a cold registry reads the file back as lists: same key, same name
    reloaded = TaskRegistry(tmp_path).get(key)
    assert request_key(reloaded) == key
    assert matrix_name(reloaded) == GOLDEN[label][1]
