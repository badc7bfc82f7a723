"""``canonical_json`` against the per-element oracle it replaced.

The encoder hands NumPy arrays and lists of plain scalars to the C JSON
encoder instead of visiting every element; request keys, matrix names
and registry records all hash its output, so it must not move a byte.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.analysis.report import canonical_json, jsonable
from tests.oracles.encoding import canonical_json_oracle


class _Box:
    def __init__(self, value):
        self.value = value

    def to_dict(self):
        return {"boxed": self.value}


_floats = st.floats(allow_nan=True, allow_infinity=True)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    _floats,
    st.text(max_size=5),
    _floats.map(np.float64),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
_plain = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=6).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
        inner.map(_Box),
    ),
    max_leaves=30,
)
_arrays = st.one_of(
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=5)),
    hnp.arrays(np.int32, hnp.array_shapes(max_dims=1, max_side=5)),
    hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=5)),
    hnp.arrays(np.bool_, hnp.array_shapes(max_dims=1, max_side=5)),
)
_values = st.recursive(
    st.one_of(_plain, _arrays),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_values)
def test_canonical_json_matches_the_per_element_oracle(value):
    assert canonical_json(value) == canonical_json_oracle(value)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.integers(), _floats), max_size=50))
def test_plain_lists_pass_through_unchanged(values):
    out = jsonable(values)
    assert out is values
    assert canonical_json(values) == canonical_json_oracle(values)


def test_tuples_and_arrays_become_lists():
    assert jsonable((1, 2.5, None)) == [1, 2.5, None]
    as_list = jsonable(np.arange(3))
    assert as_list == [0, 1, 2] and type(as_list[0]) is int
    assert jsonable(np.array([0.5])) == [0.5]


def test_subclasses_of_scalars_take_the_general_path():
    # np.float64 subclasses float: encoded through float.__repr__ both ways
    values = [np.float64(0.1), 1, np.int64(-3), np.bool_(True)]
    assert canonical_json(values) == "[0.1,1,-3,true]"
    assert canonical_json([math.inf, -math.inf, math.nan]) == \
        "[Infinity,-Infinity,NaN]"


def test_unserializable_elements_still_raise():
    with pytest.raises(TypeError):
        canonical_json([1, object()])
