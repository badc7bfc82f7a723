"""Request keys, matrix names and registry records, pinned byte for byte.

Disk caches, clients' stored base keys and ring placement all hash these
bytes, so they must survive any change to how a task is held in memory
(inline matrices ride as NumPy arrays) or encoded.  The expected values
were captured from the list-based encoder; each record is pinned by its
SHA-256 and length.  A sent ``values`` list never reaches the task, so
the value-carrying CSR spellings share ``csr_bare``'s matrix name and
delta inserts key as ``[r, c]``.
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
        "f8fd6c68c9cebbcb80bda6f302c6a100", "inline-171919884311",
        "2d910fc1cb34943ed1883cac53b9609a679d3365d331495ff2f607e086bded0c", 523),
    "csr_bare": (
        "92c7b14dafd68fb3a88a7b12c289c4c5", "inline-171919884311",
        "a3137fe9d613df3a034e7fa10550b54ef84a796c0917711e086357234b93c43e", 530),
    "csr_mixed_values": (
        "dd0dce5538b83d6a9a5b55ad4bad6453", "inline-171919884311",
        "b7126d84072eb16c0297e2587b59af69c6971afed83cd15d840e2336a94d93d4", 469),
    "coo_dups": (
        "141edb0a780855c765b3043ae92bdf07", "inline-2503c2ab7f74",
        "1bf0a3d073b2e3c912c5d6e919f28ab61c61176038fa2978dca5add2e2aa8ea3", 308),
    "named": (
        "8639ec358b20cc963aee010ba37a5d3f", "banded_001",
        "688ed6f735dfe2c0dbec6db6a63a3e306a2f5e263e2d0fb1bce80be020df1e29", 337),
    "delta_1": (
        "7213424f0c1789075c51f4952d9d0f13", "delta-fed64eddcfe1",
        "1763d1559ff946458c5ad916cc99ec499ba34e417557bda02f96c32bd8078181", 605),
    "delta_2": (
        "b7c19ae32824a40e2ed8a6eed46042ad", "delta-0c03b9e01f31",
        "1501a1918c3b2117a20f2fe8bb0393880ffdbd28c07507d6f9410cdfb81c248b", 639),
}


def _corpus() -> dict:
    m = banded(24, 3, 2, seed=3)
    bare = matrix_payload(m)
    csr = {"csr": dict(bare["csr"], values=m.values.tolist())}
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
