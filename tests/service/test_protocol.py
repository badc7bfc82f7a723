"""Request normalization, canonical keys, and worker-side builders."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matrices import banded
from repro.matrices.collection import collection
from repro.service.client import matrix_payload
from repro.cluster.batch import normalize_batch
from repro.service.protocol import (
    DELTA_BASE_ENDPOINTS,
    ENDPOINTS,
    REQUEST_FLAGS,
    RequestError,
    derive_delta_task,
    keyed_form,
    matrix_from_task,
    matrix_name,
    normalize_delta,
    normalize_request,
    request_key,
    setup_from_task,
)


def _inline(matrix):
    return matrix_payload(matrix)


def test_key_is_independent_of_field_order():
    m = _inline(banded(64, 4, 3, seed=0))
    a = normalize_request("advise", {"matrix": m, "setup": {"num_threads": 8, "scale": 16}})
    b = normalize_request("advise", {"setup": {"scale": 16, "num_threads": 8}, "matrix": m})
    assert request_key(a) == request_key(b)


def test_key_ignores_timeout_but_not_setup():
    m = _inline(banded(64, 4, 3, seed=0))
    base = normalize_request("advise", {"matrix": m})
    patient = normalize_request("advise", {"matrix": m, "timeout": 5.0})
    other = normalize_request("advise", {"matrix": m, "setup": {"num_threads": 1}})
    assert request_key(base) == request_key(patient)
    assert request_key(base) != request_key(other)


def test_endpoints_key_separately():
    m = _inline(banded(64, 4, 3, seed=0))
    advise = normalize_request("advise", {"matrix": m})
    classify = normalize_request("classify", {"matrix": m})
    assert request_key(advise) != request_key(classify)


def test_defaults_are_filled_in():
    task = normalize_request("advise", {"matrix": _inline(banded(64, 4, 3, seed=0))})
    assert task["setup"]["num_threads"] == 48
    assert task["way_options"] == [2, 3, 4, 5, 6]
    assert task["consider_isolate_x"] is True
    setup = setup_from_task(task)
    assert setup.scale == 16 and setup.num_threads == 48


def test_inline_csr_round_trips():
    matrix = banded(64, 4, 3, seed=0)
    task = normalize_request("advise", {"matrix": _inline(matrix)})
    rebuilt = matrix_from_task(task)
    assert rebuilt.num_rows == matrix.num_rows
    assert np.array_equal(rebuilt.rowptr, matrix.rowptr)
    assert np.array_equal(rebuilt.colidx, matrix.colidx)
    assert rebuilt.name == matrix_name(task)
    assert rebuilt.name.startswith("inline-")


def test_inline_coo_builds_matrix():
    task = normalize_request("classify", {
        "matrix": {"coo": {"num_rows": 3, "num_cols": 3,
                           "rows": [0, 1, 2], "cols": [1, 2, 0]}},
    })
    rebuilt = matrix_from_task(task)
    assert rebuilt.nnz == 3
    assert rebuilt.num_rows == 3


def test_named_matrix_materializes_from_collection():
    spec = collection("tiny")[0]
    task = normalize_request("classify", {
        "matrix": {"name": spec.name, "collection": "tiny"},
    })
    assert matrix_name(task) == spec.name
    rebuilt = matrix_from_task(task)
    assert rebuilt.nnz == spec.materialize().nnz


@pytest.mark.parametrize("payload, fragment", [
    ({}, "matrix"),
    ({"matrix": {"csr": {"num_rows": 2, "num_cols": 2}}}, "rowptr"),
    ({"matrix": {"coo": {"num_rows": 2, "num_cols": 2,
                         "rows": [0], "cols": [0, 1]}}}, "same length"),
    ({"matrix": {"name": "x", "collection": "bogus"}}, "collection"),
    ({"matrix": {"csr": {"num_rows": -1, "num_cols": 2,
                         "rowptr": [0], "colidx": []}}}, "non-negative"),
    ({"matrix": {"coo": {"num_rows": 2, "num_cols": 2, "rows": [0],
                         "cols": [0]}}, "setup": {"bogus": 1}}, "unknown setup"),
    ({"matrix": {"coo": {"num_rows": 2, "num_cols": 2, "rows": [0],
                         "cols": [0]}}, "timeout": -1}, "timeout"),
    ({"matrix": {"name": "x", "collection": []}}, "collection"),
])
def test_malformed_requests_rejected(payload, fragment):
    with pytest.raises(RequestError) as err:
        normalize_request("advise", payload)
    assert fragment in str(err.value)


@pytest.mark.parametrize("flag, value, message", [
    ("accuracy", "x", "accuracy must be a number"),
    ("accuracy", 0, "accuracy must be positive"),
    ("max_tier", "x", "max_tier must be an integer"),
    ("max_tier", 4, "max_tier must be between 0 and 3"),
    ("timeout", float("nan"), "timeout must be positive"),
    ("trace_context", {}, "invalid trace_context: "),
])
def test_delta_flags_are_validated_like_model_flags(flag, value, message):
    model = {"matrix": {"name": "banded_001", "collection": "tiny"}}
    delta = {"base": "0" * 32, "delta": {"inserts": [[0, 1]]}}
    for normalize in (lambda: normalize_request("advise", {**model, flag: value}),
                      lambda: normalize_delta({**delta, flag: value})):
        with pytest.raises(RequestError) as err:
            normalize()
        assert str(err.value).startswith(message)


def test_unknown_named_matrix_is_404():
    with pytest.raises(RequestError) as err:
        normalize_request("advise", {"matrix": {"name": "no_such", "collection": "tiny"}})
    assert err.value.status == 404


def test_unknown_endpoint_is_404():
    with pytest.raises(RequestError) as err:
        normalize_request("frobnicate", {"matrix": {"name": "x"}})
    assert err.value.status == 404


def test_predict_policies_are_canonicalized():
    m = _inline(banded(64, 4, 3, seed=0))
    a = normalize_request("predict", {
        "matrix": m, "policies": [{"l2_sector1_ways": 5}],
    })
    b = normalize_request("predict", {
        "matrix": m,
        "policies": [{"l2_sector1_ways": 5, "l1_sector1_ways": 0,
                      "sector1_arrays": ["colidx", "values"]}],
    })
    assert request_key(a) == request_key(b)


def test_bad_policy_rejected():
    with pytest.raises(RequestError):
        normalize_request("predict", {
            "matrix": _inline(banded(64, 4, 3, seed=0)),
            "policies": [{"sector1_arrays": ["bogus_array"]}],
        })


def test_inline_fields_are_read_only_arrays():
    matrix = banded(64, 4, 3, seed=0)
    csr = dict(_inline(matrix)["csr"], values=matrix.values.tolist())
    task = normalize_request("advise", {"matrix": {"csr": csr}})
    spec = task["matrix"]
    # indices validated as int64, held as int32 when they all fit
    assert spec["rowptr"].dtype == np.int32 and spec["colidx"].dtype == np.int32
    # a sent values list is validated, then left out of the task
    assert "values" not in spec
    assert not spec["colidx"].flags.writeable
    wide = normalize_request("classify", {"matrix": {"coo": {
        "num_rows": 1, "num_cols": 2**40, "rows": [0], "cols": [2**33]}}})
    assert wide["matrix"]["cols"].dtype == np.int64
    assert wide["matrix"]["rows"].dtype == np.int32
    # setup and way-option lists stay plain lists
    assert task["setup"]["l2_way_options"] == list(task["setup"]["l2_way_options"])
    assert isinstance(task["way_options"], list)


def test_non_int_indices_take_the_per_element_coercion():
    fast = normalize_request("classify", {"matrix": {"coo": {
        "num_rows": 3, "num_cols": 3, "rows": [0, 1, 2], "cols": [1, 2, 0],
        "values": [1, 2, 3]}}})
    slow = normalize_request("classify", {"matrix": {"coo": {
        "num_rows": 3, "num_cols": 3, "rows": [0.0, True, "2"],
        "cols": [1.9, 2, 0], "values": ["1", 2, 3.0]}}})
    assert request_key(fast) == request_key(slow)
    assert slow["matrix"]["cols"].tolist() == [1, 2, 0]


@pytest.mark.parametrize("field, value, fragment", [
    ("colidx", [0, 2**63], "fit in int64"),
    ("colidx", [0, -(2**63) - 1], "fit in int64"),
    ("colidx", [0, float("inf")], "fit in int64"),
    ("colidx", [0, float("nan")], "must contain integers"),
    ("colidx", [0, "x"], "must contain integers"),
    ("values", [1.0, 10**400], "float64 range"),
    ("values", [1.0, "x"], "must contain numbers"),
    ("values", [1.0], "one number per entry"),
])
def test_out_of_range_inline_numbers_are_400(field, value, fragment):
    csr = {"num_rows": 2, "num_cols": 2, "rowptr": [0, 1, 2], "colidx": [0, 1]}
    csr[field] = value
    with pytest.raises(RequestError) as err:
        normalize_request("classify", {"matrix": {"csr": csr}})
    assert err.value.status == 400
    assert fragment in str(err.value)


def test_colidx_beyond_int32_still_overflows_in_the_worker():
    task = normalize_request("classify", {"matrix": {"csr": {
        "num_rows": 1, "num_cols": 2**32, "rowptr": [0, 2],
        "colidx": [1, 2**31]}}})
    with pytest.raises(OverflowError,
                       match="Python integer 2147483648 out of bounds for int32"):
        matrix_from_task(task)


_ODD_NUMBERS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from([10**400, -(10**400), 2**63, -(2**63) - 1, 2**31, "abc",
                     "1e999", "", [1], {}]),
)

#: (endpoint, path into the payload) of every number a request carries;
#: a trailing index replaces one element of a list field
_NUMBER_FIELDS = [
    ("predict", ("matrix", "csr", "num_rows")),
    ("predict", ("matrix", "csr", "num_cols")),
    ("predict", ("matrix", "csr", "rowptr", 1)),
    ("predict", ("matrix", "csr", "colidx", 0)),
    ("predict", ("matrix", "csr", "values", 1)),
    ("predict", ("matrix", "csr", "values")),
    ("classify", ("matrix", "coo", "rows", 0)),
    ("classify", ("matrix", "coo", "cols", 1)),
    ("classify", ("matrix", "coo", "values", 0)),
    ("classify", ("way_options", 0)),
    ("advise", ("setup", "scale")),
    ("advise", ("setup", "num_threads")),
    ("advise", ("setup", "iterations")),
    ("advise", ("setup", "l1_prefetch_distance")),
    ("advise", ("setup", "l2_way_options", 0)),
    ("advise", ("min_sector1_ways_with_prefetch",)),
    ("advise", ("accuracy",)),
    ("advise", ("max_tier",)),
    ("advise", ("timeout",)),
    ("predict", ("policies", 0, "l2_sector1_ways")),
    ("predict", ("policies", 0, "sector1_arrays")),
    ("optimize", ("budget_seconds",)),
    ("optimize", ("seed",)),
    ("named", ("setup", "scale")),
]


def _payload(endpoint: str) -> dict:
    if endpoint == "named":
        matrix = {"name": "banded_001", "collection": "tiny"}
    elif endpoint == "classify":
        matrix = {"coo": {"num_rows": 2, "num_cols": 2, "rows": [0, 1],
                          "cols": [1, 0], "values": [1.0, 2.0]}}
    else:
        matrix = {"csr": {"num_rows": 2, "num_cols": 2, "rowptr": [0, 1, 2],
                          "colidx": [0, 1], "values": [1.0, 2.0]}}
    payload = {"matrix": matrix, "setup": {"l2_way_options": [4, 5]}}
    if endpoint == "predict":
        payload["policies"] = [{"l2_sector1_ways": 3}]
    elif endpoint != "optimize":
        payload["way_options"] = [2, 3]
    return payload


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_NUMBER_FIELDS), _ODD_NUMBERS)
def test_any_number_anywhere_is_a_task_or_a_4xx(field, value):
    endpoint, path = field
    payload = _payload(endpoint)
    node = payload
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    try:
        normalize_request("advise" if endpoint == "named" else endpoint, payload)
    except RequestError as exc:
        assert 400 <= exc.status < 500


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([("delta", "inserts", 0, 0), ("delta", "inserts", 0, 2),
                        ("delta", "deletes", 0, 1), ("accuracy",),
                        ("max_tier",), ("timeout",)]),
       _ODD_NUMBERS)
def test_any_number_in_a_delta_is_normalized_or_a_4xx(path, value):
    payload = {"base": "0" * 32,
               "delta": {"inserts": [[0, 1, 2.0]], "deletes": [[1, 1]]}}
    node = payload
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    try:
        normalize_delta(payload)
    except RequestError as exc:
        assert 400 <= exc.status < 500


#: any JSON value, NaN and the infinities included (the daemon's parser
#: accepts them)
_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
_INT = st.integers(0, 12)
_INTS = st.lists(_INT, max_size=6)
_FLOATS = st.lists(st.floats(-10, 10), max_size=6)


def _object(required: dict, optional: dict | None = None) -> st.SearchStrategy:
    return st.fixed_dictionaries(required, optional=optional or {})


_HEX = "0123456789abcdef"
_FLAGS = {
    "accuracy": st.floats(0.01, 2.0),
    "max_tier": st.integers(0, 3),
    "timeout": st.floats(0.1, 60.0),
    "trace": st.booleans(),
    "trace_context": _object({
        "trace_id": st.text(alphabet=_HEX, min_size=32, max_size=32),
        "span_id": st.text(alphabet=_HEX, min_size=16, max_size=16)}),
}
_MATRIX = st.one_of(
    _object({"csr": _object({"num_rows": _INT, "num_cols": _INT,
                             "rowptr": _INTS, "colidx": _INTS},
                            {"values": _FLOATS})}),
    _object({"coo": _object({"num_rows": _INT, "num_cols": _INT,
                             "rows": _INTS, "cols": _INTS},
                            {"values": _FLOATS})}),
    _object({"name": st.sampled_from(["banded_001", "nope"])},
            {"collection": st.sampled_from(["tiny", "small"])}),
)
#: the optional fields of a model request, shared by a batch's items
_KNOBS = {
    "setup": _object({}, {
        "scale": st.sampled_from([16, 8]), "num_threads": st.integers(1, 48),
        "iterations": st.integers(1, 3), "l1_prefetch_distance": _INT,
        "l2_prefetch_distance": _INT, "l2_way_options": _INTS,
        "l1_way_options": _INTS}),
    "way_options": _INTS,
    "policies": st.lists(_object({}, {
        "l2_sector1_ways": _INT, "l1_sector1_ways": _INT,
        "sector1_arrays": st.lists(st.sampled_from(
            ["values", "colidx", "rowptr", "x", "y"]), max_size=3)}),
        max_size=3),
    "consider_isolate_x": st.booleans(),
    "min_sector1_ways_with_prefetch": _INT,
    "strategies": st.lists(st.sampled_from(["rcm", "degree"]), max_size=2),
    "budget_seconds": st.floats(0.1, 60.0),
    "seed": _INT,
    **_FLAGS,
}
_REQUEST = _object({"matrix": _MATRIX}, _KNOBS)
_BATCH = _object({
    "endpoint": st.sampled_from(ENDPOINTS),
    "items": st.lists(_MATRIX, min_size=1, max_size=3),
    "window": st.one_of(st.integers(-2, 100), st.floats(), st.sampled_from(
        [float("inf"), float("-inf"), 10**400, "8", "abc"])),
}, _KNOBS)
_EDGES = st.lists(st.lists(_INT, min_size=2, max_size=2), max_size=3)
_DELTA = _object({
    "base": st.text(alphabet=_HEX, min_size=32, max_size=32),
    "delta": _object({"inserts": _EDGES.filter(bool)}, {"deletes": _EDGES}),
}, _FLAGS)


def _paths(node, prefix=()):
    yield prefix
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@st.composite
def _mutated(draw, bodies: st.SearchStrategy):
    """A well-formed body with up to four fields, at any depth, replaced
    by any JSON value, deleted, or joined by a stray sibling."""
    body = draw(bodies)
    for _ in range(draw(st.integers(0, 4))):
        path = draw(st.sampled_from(list(_paths(body))))
        value = draw(_ANY_JSON)
        if not path:
            body = value
            continue
        parent = body
        for step in path[:-1]:
            parent = parent[step]
        action = draw(st.sampled_from(["replace", "delete", "stray"]))
        if action == "replace":
            parent[path[-1]] = value
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent[draw(st.text(max_size=6))] = value
        else:
            parent.append(value)
    return body


def _normalized_or_4xx(normalize) -> None:
    try:
        normalize()
    except RequestError as exc:
        assert 400 <= exc.status < 500, exc.status


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ENDPOINTS + ("nope",)), _mutated(_REQUEST))
def test_any_request_body_is_a_task_or_a_4xx(endpoint, body):
    _normalized_or_4xx(lambda: request_key(normalize_request(endpoint, body)))


@settings(max_examples=200, deadline=None)
@given(_mutated(_DELTA))
def test_any_delta_body_is_normalized_or_a_4xx(body):
    _normalized_or_4xx(lambda: normalize_delta(body))


@settings(max_examples=200, deadline=None)
@given(_mutated(_BATCH))
def test_any_batch_body_is_a_spec_or_a_4xx(body):
    _normalized_or_4xx(lambda: normalize_batch(body, 8))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ENDPOINTS), _REQUEST, _DELTA, st.integers(0, 2**20))
def test_keyed_form_holds_no_request_flag(endpoint, body, delta, budget):
    try:
        tasks = [normalize_request(endpoint, body)]
        if endpoint in DELTA_BASE_ENDPOINTS:
            tasks.append(derive_delta_task(tasks[0], normalize_delta(delta),
                                           budget))
    except RequestError:
        return
    for task in tasks:
        keyed = keyed_form(task)
        kept = {"accuracy"} if task["endpoint"] == "optimize" else set()
        assert set(keyed) & set(REQUEST_FLAGS) <= kept
        assert request_key(task) == request_key(keyed)
