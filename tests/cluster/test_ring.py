"""HashRing unit and property tests (placement, disruption bounds)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.ring import DEFAULT_VNODES, HashRing

#: a plausible replica node pool for property tests
NODES = st.sets(
    st.sampled_from([f"127.0.0.1:{port}" for port in range(9000, 9032)]),
    min_size=1, max_size=8,
)

KEYS = [f"key-{i:04x}" for i in range(512)]


def _placement(ring):
    return {key: ring.owner(key) for key in KEYS}


# -- basics --------------------------------------------------------------


def test_empty_ring_owns_nothing():
    ring = HashRing()
    assert ring.owner("anything") is None
    assert ring.preference("anything") == []
    assert len(ring) == 0


def test_single_node_owns_everything():
    ring = HashRing(["a:1"])
    assert all(ring.owner(key) == "a:1" for key in KEYS)
    assert ring.preference("k") == ["a:1"]


def test_add_remove_idempotent():
    ring = HashRing(["a:1", "b:2"])
    before = _placement(ring)
    ring.add("a:1")
    ring.remove("c:3")
    assert _placement(ring) == before
    assert ring.nodes == frozenset({"a:1", "b:2"})


def test_vnodes_validation():
    with pytest.raises(ValueError):
        HashRing(vnodes=0)
    with pytest.raises(ValueError):
        HashRing([""])


# -- properties ----------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(nodes=NODES)
def test_placement_is_insertion_order_invariant(nodes):
    """The mapping depends only on the node *set*, never on history."""
    ordered = sorted(nodes)
    forward = HashRing(ordered)
    backward = HashRing(reversed(ordered))
    # a third ring built by add/remove churn must also converge
    churned = HashRing(ordered)
    churned.add("127.0.0.1:9999")
    churned.remove("127.0.0.1:9999")
    assert _placement(forward) == _placement(backward) == _placement(churned)


@settings(max_examples=50, deadline=None)
@given(nodes=NODES)
def test_owner_heads_preference_and_is_a_member(nodes):
    ring = HashRing(nodes)
    for key in KEYS[:64]:
        sequence = ring.preference(key)
        assert sequence[0] == ring.owner(key)
        assert set(sequence) == set(nodes)  # every node appears once
        assert len(sequence) == len(nodes)
        assert ring.preference(key, count=1) == sequence[:1]


@settings(max_examples=30, deadline=None)
@given(nodes=NODES)
def test_removal_only_remaps_the_removed_nodes_keys(nodes):
    """Minimal disruption: keys not owned by the ejected node never move."""
    ring = HashRing(nodes)
    victim = sorted(nodes)[0]
    before = _placement(ring)
    ring.remove(victim)
    after = _placement(ring)
    for key in KEYS:
        if before[key] != victim:
            assert after[key] == before[key]
        elif len(nodes) > 1:
            assert after[key] is not None and after[key] != victim


@settings(max_examples=30, deadline=None)
@given(nodes=NODES)
def test_addition_only_steals_for_the_new_node(nodes):
    """Adding a node moves keys only *onto* it, ~K/(N+1) of them."""
    ring = HashRing(nodes)
    before = _placement(ring)
    newcomer = "127.0.0.1:9999"
    ring.add(newcomer)
    after = _placement(ring)
    moved = [key for key in KEYS if after[key] != before[key]]
    assert all(after[key] == newcomer for key in moved)
    # expected share is K/(N+1); allow generous slack for vnode variance
    expected = len(KEYS) / (len(nodes) + 1)
    assert len(moved) <= expected * 2.5 + 8


def test_remap_fraction_is_about_one_over_n():
    """Ejecting one of N nodes remaps ≈ K/N keys, not the whole keyspace."""
    nodes = [f"10.0.0.{i}:8787" for i in range(8)]
    ring = HashRing(nodes)
    before = _placement(ring)
    ring.remove(nodes[3])
    after = _placement(ring)
    moved = sum(before[key] != after[key] for key in KEYS)
    expected = len(KEYS) / len(nodes)
    assert moved <= expected * 2.0, (
        f"{moved} of {len(KEYS)} keys moved; expected about {expected:.0f}"
    )


def test_ownership_shares_are_roughly_uniform():
    nodes = [f"10.0.0.{i}:8787" for i in range(4)]
    shares = HashRing(nodes, vnodes=DEFAULT_VNODES).ownership_shares()
    assert set(shares) == set(nodes)
    assert abs(sum(shares.values()) - 1.0) < 1e-9
    for node, share in shares.items():
        assert 0.10 <= share <= 0.45, (node, share)
