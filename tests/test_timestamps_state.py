"""Unit and property tests for Hermes timestamps, virtual node ids and key states."""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, strategies as st

from repro.core.state import ALLOWED_TRANSITIONS, HermesRecord, KeyState
from repro.core.timestamps import Timestamp, VirtualNodeIds
from repro.errors import ConfigurationError, InvalidTransition


# --------------------------------------------------------------- timestamps
def test_zero_timestamp():
    assert Timestamp.ZERO.version == 0
    assert Timestamp.ZERO.cid == 0


def test_version_dominates_comparison():
    assert Timestamp(2, 0) > Timestamp(1, 99)


def test_cid_breaks_ties():
    assert Timestamp(1, 3) > Timestamp(1, 2)
    assert Timestamp(1, 2) < Timestamp(1, 3)


def test_equal_timestamps():
    assert Timestamp(4, 2) == Timestamp(4, 2)
    assert Timestamp(4, 2) >= Timestamp(4, 2)
    assert Timestamp(4, 2) <= Timestamp(4, 2)


def test_increment_produces_higher_timestamp():
    ts = Timestamp(3, 1)
    assert ts.increment(cid=2) > ts
    assert ts.increment(cid=2, by=2).version == 5


def test_increment_rejects_non_positive():
    with pytest.raises(ConfigurationError):
        Timestamp.ZERO.increment(cid=1, by=0)


def test_concurrent_with():
    assert Timestamp(3, 1).concurrent_with(Timestamp(3, 2))
    assert not Timestamp(3, 1).concurrent_with(Timestamp(4, 1))
    assert not Timestamp(3, 1).concurrent_with(Timestamp(3, 1))


@given(
    st.tuples(st.integers(0, 1000), st.integers(0, 64)),
    st.tuples(st.integers(0, 1000), st.integers(0, 64)),
)
def test_timestamp_ordering_is_total_and_antisymmetric(a, b):
    ta, tb = Timestamp(*a), Timestamp(*b)
    assert (ta < tb) or (tb < ta) or (ta == tb)
    if ta < tb:
        assert not (tb < ta)


@given(
    st.tuples(st.integers(0, 100), st.integers(0, 8)),
    st.tuples(st.integers(0, 100), st.integers(0, 8)),
    st.tuples(st.integers(0, 100), st.integers(0, 8)),
)
def test_timestamp_ordering_is_transitive(a, b, c):
    ta, tb, tc = Timestamp(*a), Timestamp(*b), Timestamp(*c)
    if ta <= tb and tb <= tc:
        assert ta <= tc


@given(st.tuples(st.integers(0, 1000), st.integers(0, 64)), st.integers(1, 16), st.integers(1, 2))
def test_increment_is_strictly_monotonic(base, cid, by):
    ts = Timestamp(*base)
    assert ts.increment(cid=cid, by=by) > ts


def test_timestamp_compares_and_hashes_as_its_packed_int():
    for name in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__hash__"):
        assert name not in vars(Timestamp)
    assert int(Timestamp(version=3, cid=5)) == 3 << 32 | 5


def test_timestamp_rejects_halves_that_do_not_pack():
    for version, cid in ((-1, 0), (0, -1), (0, 2**32)):
        with pytest.raises(ValueError):
            Timestamp(version=version, cid=cid)
    with pytest.raises(ValueError):
        Timestamp.ZERO.increment(cid=2**32)


# Small halves make equal versions and equal timestamps likely; large ones
# cover the packing's full range.
VERSIONS = st.integers(0, 3) | st.integers(0, 2**40 - 1)
CIDS = st.integers(0, 3) | st.integers(0, 2**32 - 1)


@given(VERSIONS, CIDS, VERSIONS, CIDS, CIDS, st.integers(1, 2))
def test_packed_timestamp_agrees_with_a_tuple_reference(v1, c1, v2, c2, cid, by):
    a, b = Timestamp(version=v1, cid=c1), Timestamp(version=v2, cid=c2)
    ra, rb = (v1, c1), (v2, c2)
    assert (a.version, a.cid) == ra
    assert (a < b, a <= b, a > b, a >= b) == (ra < rb, ra <= rb, ra > rb, ra >= rb)
    assert (a == b, a != b) == (ra == rb, ra != rb)
    assert len({a, b}) == len({ra, rb})
    successor = a.increment(cid, by)
    assert type(successor) is Timestamp
    assert (successor.version, successor.cid) == (v1 + by, cid)
    assert a.concurrent_with(b) == (v1 == v2 and c1 != c2)
    assert repr(a) == f"Timestamp(version={v1}, cid={c1})"
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(a, protocol))
        assert type(copy) is Timestamp and copy == a and (copy.version, copy.cid) == ra


# ---------------------------------------------------------- virtual node ids
def test_virtual_ids_disjoint_across_nodes():
    nodes = [VirtualNodeIds(node_id=n, num_nodes=3, ids_per_node=4) for n in range(3)]
    all_ids = [vid for node in nodes for vid in node.ids]
    assert len(all_ids) == len(set(all_ids))


def test_virtual_ids_map_back_to_owner():
    vids = VirtualNodeIds(node_id=2, num_nodes=5, ids_per_node=3)
    for vid in vids.ids:
        assert vids.owner_of(vid) == 2
        assert vids.owns(vid)


def test_virtual_ids_pick_only_owned_ids():
    vids = VirtualNodeIds(node_id=1, num_nodes=3, ids_per_node=4, rng=random.Random(0))
    for _ in range(50):
        assert vids.pick() in vids.ids


def test_single_virtual_id_is_node_id():
    vids = VirtualNodeIds(node_id=4, num_nodes=5, ids_per_node=1)
    assert vids.pick() == 4


def test_virtual_ids_validation():
    with pytest.raises(ConfigurationError):
        VirtualNodeIds(node_id=0, num_nodes=0)
    with pytest.raises(ConfigurationError):
        VirtualNodeIds(node_id=0, num_nodes=3, ids_per_node=0)


def test_virtual_ids_reject_a_negative_node_id():
    with pytest.raises(ConfigurationError, match="node_id must be non-negative"):
        VirtualNodeIds(node_id=-1, num_nodes=3)


def test_virtual_ids_must_fit_a_timestamp_cid():
    # The highest virtual id is node_id + (ids_per_node - 1) * num_nodes.
    assert VirtualNodeIds(node_id=2**32 - 1, num_nodes=1).pick() == 2**32 - 1
    assert max(VirtualNodeIds(node_id=1, num_nodes=2**31, ids_per_node=2).ids) == 2**31 + 1
    for node_id, num_nodes, ids_per_node in ((2**32, 1, 1), (0, 2**31, 3)):
        with pytest.raises(ConfigurationError, match="does not fit a timestamp's 32-bit cid"):
            VirtualNodeIds(node_id=node_id, num_nodes=num_nodes, ids_per_node=ids_per_node)


@given(st.integers(2, 9), st.integers(1, 6))
def test_virtual_ids_never_collide_property(num_nodes, ids_per_node):
    owned = {}
    for node in range(num_nodes):
        for vid in VirtualNodeIds(node, num_nodes, ids_per_node).ids:
            assert vid not in owned, "virtual id assigned to two physical nodes"
            owned[vid] = node


# ------------------------------------------------------------------- states
def test_default_meta_is_valid_zero():
    meta = HermesRecord()
    assert meta.state is KeyState.VALID
    assert meta.timestamp == Timestamp.ZERO
    assert meta.readable


def test_only_valid_state_is_readable():
    for state in KeyState:
        assert state.readable == (state is KeyState.VALID)


def test_coordinating_states():
    assert KeyState.WRITE.coordinating
    assert KeyState.REPLAY.coordinating
    assert not KeyState.VALID.coordinating
    assert not KeyState.INVALID.coordinating
    assert not KeyState.TRANS.coordinating


def test_legal_transition_returns_previous_state():
    meta = HermesRecord()
    previous = meta.transition(KeyState.WRITE)
    assert previous is KeyState.VALID
    assert meta.state is KeyState.WRITE


def test_write_commit_path():
    meta = HermesRecord()
    meta.transition(KeyState.WRITE)
    meta.transition(KeyState.VALID)
    assert meta.readable


def test_superseded_write_path():
    meta = HermesRecord()
    meta.transition(KeyState.WRITE)
    meta.transition(KeyState.TRANS)
    meta.transition(KeyState.INVALID)
    meta.transition(KeyState.REPLAY)
    meta.transition(KeyState.VALID)


def test_illegal_transition_rejected():
    meta = HermesRecord()
    with pytest.raises(InvalidTransition):
        meta.transition(KeyState.TRANS)  # VALID cannot jump straight to TRANS
    with pytest.raises(InvalidTransition):
        HermesRecord(state=KeyState.TRANS).transition(KeyState.WRITE)


def test_transition_table_covers_every_state():
    assert set(ALLOWED_TRANSITIONS) == set(KeyState)


@given(st.lists(st.sampled_from(list(KeyState)), min_size=1, max_size=30))
def test_random_transition_sequences_never_corrupt_state(sequence):
    meta = HermesRecord()
    for target in sequence:
        if target in ALLOWED_TRANSITIONS[meta.state]:
            meta.transition(target)
        else:
            with pytest.raises(InvalidTransition):
                meta.transition(target)
        assert meta.state in KeyState
