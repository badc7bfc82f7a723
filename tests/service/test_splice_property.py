"""Spliced encodings equal full encodings, byte for byte.

The daemon encodes a chain's root matrix once and splices that root JSON
into every request key, registry record and matrix name of the chain;
the worker hashes the same string for its reuse-state keys.  These
properties replay the daemon's chain (csr, coo and named bases, 1-5
batches, with and without request flags) and compare each spliced value
with the one a full ``canonical_json`` of the task gives, including a
record read back from disk as lists.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.report import canonical_json
from repro.delta.engine import _state_keys
from repro.service.protocol import (
    DELTA_BASE_ENDPOINTS,
    derive_delta_task,
    keyed_form,
    matrix_name,
    normalize_delta,
    normalize_request,
    request_key,
    root_spec,
)

DIM = 9
_cells = st.tuples(st.integers(0, DIM - 1), st.integers(0, DIM - 1))


@st.composite
def _matrices(draw):
    kind = draw(st.sampled_from(["csr", "coo", "named"]))
    if kind == "named":
        return {"name": draw(st.sampled_from(["banded_001", "random_uniform_002"])),
                "collection": "tiny"}
    cells = draw(st.lists(_cells, max_size=24))
    values = draw(st.booleans())
    if kind == "coo":
        coo = {"num_rows": DIM, "num_cols": DIM,
               "rows": [r for r, _ in cells], "cols": [c for _, c in cells]}
        if values:
            coo["values"] = [0.5 * i for i in range(len(cells))]
        return {"coo": coo}
    cells = sorted(set(cells))
    rowptr = [0] * (DIM + 1)
    for r, _ in cells:
        rowptr[r + 1] += 1
    for r in range(DIM):
        rowptr[r + 1] += rowptr[r]
    csr = {"num_rows": DIM, "num_cols": DIM, "rowptr": rowptr,
           "colidx": [c for _, c in cells]}
    if values:
        csr["values"] = [1.0 + i for i in range(len(cells))]
    return {"csr": csr}


@st.composite
def _batches(draw):
    inserts = draw(st.sets(_cells, max_size=5))
    deletes = draw(st.sets(_cells, max_size=5).map(lambda s: s - inserts))
    if not inserts and not deletes:
        inserts = {(0, 0)}
    return {"inserts": [list(cell) for cell in sorted(inserts)],
            "deletes": [list(cell) for cell in sorted(deletes)]}


_flags = st.fixed_dictionaries({}, optional={
    "accuracy": st.sampled_from([0.05, 1.0]),
    "max_tier": st.integers(0, 3),
    "timeout": st.just(30.0),
})


def _full(task):
    """Every value the daemon and worker derive, from full encodings."""
    key, record = request_key(task, with_record=True)
    assert record == canonical_json(keyed_form(task))
    return key, record, matrix_name(task)


def _spliced(task, root_json):
    key, record = request_key(task, root_json, with_record=True)
    return key, record, matrix_name(task, root_json)


@settings(max_examples=60, deadline=None)
@given(endpoint=st.sampled_from(DELTA_BASE_ENDPOINTS), matrix=_matrices(),
       threads=st.integers(1, 48), batches=st.lists(_batches(), min_size=1,
                                                    max_size=5),
       flags=st.lists(_flags, min_size=5, max_size=5),
       line_size=st.sampled_from([64, 256]))
def test_spliced_keys_records_names_and_state_keys_equal_full_ones(
        endpoint, matrix, threads, batches, flags, line_size):
    base = normalize_request(endpoint, {"matrix": matrix,
                                        "setup": {"num_threads": threads}})
    root_json = canonical_json(root_spec(base))
    assert _spliced(base, root_json) == _full(base)

    stored, key = keyed_form(base), request_key(base)
    previous_state = None
    own_keys = []
    for batch, extra in zip(batches, flags):
        task = derive_delta_task(
            stored, normalize_delta({"base": key, "delta": batch, **extra}),
            65_536)
        spliced = _spliced(task, root_json)
        assert spliced == _full(task)

        # the worker's reuse-state keys: from the root JSON it is sent,
        # and from encoding the base itself; a step's prefix is the state
        # its previous step left, and each older ancestor the state of
        # the matching shorter chain, down to the base's
        state = _state_keys(task["matrix"], root_json, line_size)
        assert state == _state_keys(
            task["matrix"], canonical_json(task["matrix"]["base"]), line_size)
        if previous_state is not None:
            assert state[1] == previous_state[0]
            assert state[-1] == previous_state[-1]
        own_keys.append(state[0])
        assert state[:-1] == tuple(reversed(own_keys))
        assert len(set(state)) == len(state)
        previous_state = state

        # a restarted daemon reads the record back as lists: its one
        # encode reproduces the root JSON and revalidates the key
        reloaded = json.loads(spliced[1])
        assert canonical_json(root_spec(reloaded)) == root_json
        assert _spliced(reloaded, root_json) == spliced

        stored, key = keyed_form(task), spliced[0]


@given(batch=_batches())
def test_a_hand_edited_delta_spec_is_encoded_whole(batch):
    """A record whose delta spec gained a field or lost its batch list,
    or whose other fields are missing, keys by its own bytes, so it fails
    revalidation like any tampering."""
    base = normalize_request("advise", {"matrix": {"coo": {
        "num_rows": DIM, "num_cols": DIM, "rows": [0, 1], "cols": [1, 2]}}})
    task = derive_delta_task(keyed_form(base), normalize_delta(
        {"base": request_key(base), "delta": batch}), 65_536)
    root_json = canonical_json(root_spec(task))
    spec = task["matrix"]
    for edited in (dict(spec, extra=1),
                   dict(spec, batches={str(i): b for i, b in enumerate(spec["batches"])}),
                   dict(spec, batches=tuple(spec["batches"]))):
        tampered = dict(task, matrix=edited)
        assert _spliced(tampered, root_json) == _full(tampered)
    # a record with no fields sorting before or after the matrix
    for bare in ({"matrix": spec}, {"endpoint": "advise", "matrix": spec},
                 {"matrix": spec, "setup": task["setup"]}):
        assert request_key(bare, root_json, with_record=True) == request_key(
            bare, with_record=True)
