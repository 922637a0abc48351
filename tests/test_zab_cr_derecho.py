"""Baseline protocols: ZAB, plain Chain Replication and the Derecho-style model."""

from __future__ import annotations

import pytest

from repro.protocols.base import ForwardedWrite
from repro.protocols.chain import ChainReplicationReplica
from repro.protocols.derecho import DerechoConfig, DerechoReplica
from repro.protocols.zab import ZabReplica
from repro.types import Operation, OpStatus
from tests.conftest import make_cluster, submit_and_run


# ----------------------------------------------------------------------- ZAB
@pytest.fixture
def zab_cluster():
    return make_cluster("zab", 3)


def test_zab_leader_is_lowest_id(zab_cluster):
    assert zab_cluster.replica(0).is_leader
    assert not zab_cluster.replica(1).is_leader
    assert zab_cluster.replica(2).leader == 0


def test_zab_write_commits_everywhere(zab_cluster):
    zab_cluster.preload({"k": 0})
    status, _ = submit_and_run(zab_cluster, 2, Operation.write("k", "v"))
    assert status is OpStatus.OK
    zab_cluster.run(until=zab_cluster.sim.now + 0.001)
    assert all(r.store.get("k") == "v" for r in zab_cluster.all_replicas())


def test_zab_reads_are_local_and_need_no_messages(zab_cluster):
    zab_cluster.preload({"k": 7})
    status, value = submit_and_run(zab_cluster, 1, Operation.read("k"))
    assert value == 7
    assert zab_cluster.network.stats.messages_sent == 0


def test_zab_zxids_applied_in_order(zab_cluster):
    zab_cluster.preload({f"k{i}": 0 for i in range(6)})
    done = []
    for i in range(6):
        zab_cluster.replica(i % 3).submit(
            Operation.write(f"k{i}", i), lambda o, s, v: done.append(s)
        )
    zab_cluster.run_until(lambda: len(done) == 6, check_interval=1e-5, max_time=0.1)
    zab_cluster.run(until=zab_cluster.sim.now + 0.001)
    for replica in zab_cluster.all_replicas():
        assert replica.applied_zxid == 6


def test_zab_all_writes_serialize_through_leader(zab_cluster):
    zab_cluster.preload({"a": 0, "b": 0})
    done = []
    zab_cluster.replica(1).submit(Operation.write("a", 1), lambda o, s, v: done.append(s))
    zab_cluster.replica(2).submit(Operation.write("b", 2), lambda o, s, v: done.append(s))
    zab_cluster.run_until(lambda: len(done) == 2, check_interval=1e-5, max_time=0.1)
    # The leader committed both writes even though neither originated there.
    assert zab_cluster.replica(0).writes_committed == 2


def test_zab_commits_with_majority_only(zab_cluster):
    """A crashed follower does not block commits (majority-based protocol)."""
    zab_cluster.preload({"k": 0})
    zab_cluster.crash(2)
    status, _ = submit_and_run(zab_cluster, 1, Operation.write("k", 1), timeout=0.05)
    assert status is OpStatus.OK


def test_zab_features():
    features = ZabReplica.features()
    assert features.consistency == "sequential"
    assert not features.inter_key_concurrent_writes
    assert not features.decentralized_writes


# ------------------------------------------------------------------------ CR
@pytest.fixture
def cr_cluster():
    return make_cluster("cr", 3)


def test_cr_write_and_read_roundtrip(cr_cluster):
    cr_cluster.preload({"k": "v0"})
    status, _ = submit_and_run(cr_cluster, 1, Operation.write("k", "v1"))
    assert status is OpStatus.OK
    status, value = submit_and_run(cr_cluster, 0, Operation.read("k"))
    assert value == "v1"


def test_cr_reads_forwarded_to_tail(cr_cluster):
    cr_cluster.preload({"k": "v0"})
    submit_and_run(cr_cluster, 0, Operation.read("k"))
    assert cr_cluster.replica(0).reads_served_remotely == 1
    submit_and_run(cr_cluster, 2, Operation.read("k"))
    assert cr_cluster.replica(2).reads_served_locally == 1


def test_cr_features_have_no_local_reads():
    assert not ChainReplicationReplica.features().local_reads


def test_cr_write_applies_on_every_node(cr_cluster):
    cr_cluster.preload({"k": 0})
    submit_and_run(cr_cluster, 2, Operation.write("k", 9))
    cr_cluster.run(until=cr_cluster.sim.now + 0.001)
    assert all(r.store.get("k") == 9 for r in cr_cluster.all_replicas())


# -------------------------------------------------------------------- Derecho
@pytest.fixture
def derecho_cluster():
    return make_cluster("derecho", 3)


def test_derecho_write_commits_everywhere(derecho_cluster):
    derecho_cluster.preload({"k": 0})
    status, _ = submit_and_run(derecho_cluster, 2, Operation.write("k", "v"))
    assert status is OpStatus.OK
    derecho_cluster.run(until=derecho_cluster.sim.now + 0.001)
    assert all(r.store.get("k") == "v" for r in derecho_cluster.all_replicas())


def test_derecho_reads_are_local(derecho_cluster):
    derecho_cluster.preload({"k": 5})
    status, value = submit_and_run(derecho_cluster, 1, Operation.read("k"))
    assert value == 5
    assert derecho_cluster.network.stats.messages_sent == 0


def test_derecho_lock_step_one_round_at_a_time(derecho_cluster):
    derecho_cluster.preload({f"k{i}": 0 for i in range(4)})
    done = []
    for i in range(4):
        derecho_cluster.replica(0).submit(Operation.write(f"k{i}", i), lambda o, s, v: done.append(s))
    derecho_cluster.run_until(lambda: len(done) == 4, check_interval=1e-5, max_time=0.1)
    sequencer = derecho_cluster.replica(0)
    # With the default one-update rounds, four writes require four rounds.
    assert sequencer.rounds_delivered == 4


def test_derecho_round_batching_configurable():
    cluster = make_cluster("derecho", 3, derecho=DerechoConfig(max_round_updates=4))
    cluster.preload({f"k{i}": 0 for i in range(4)})
    done = []
    for i in range(4):
        cluster.replica(1).submit(Operation.write(f"k{i}", i), lambda o, s, v: done.append(s))
    cluster.run_until(lambda: len(done) == 4, check_interval=1e-5, max_time=0.1)
    assert cluster.replica(0).rounds_delivered <= 3


def test_derecho_total_order_identical_on_all_replicas(derecho_cluster):
    derecho_cluster.preload({"k": 0})
    done = []
    for i in range(5):
        derecho_cluster.replica(i % 3).submit(Operation.write("k", i), lambda o, s, v: done.append(s))
    derecho_cluster.run_until(lambda: len(done) == 5, check_interval=1e-5, max_time=0.1)
    derecho_cluster.run(until=derecho_cluster.sim.now + 0.001)
    values = {r.store.get("k") for r in derecho_cluster.all_replicas()}
    assert len(values) == 1


def test_derecho_features():
    features = DerechoReplica.features()
    assert not features.inter_key_concurrent_writes
    assert features.local_reads


# ------------------------------------------------------ forwards to the orderer
@pytest.mark.parametrize("protocol", ["cr", "craq", "zab", "derecho"])
def test_forwarded_write_at_a_non_orderer_is_dropped(protocol):
    # Only the current orderer (chain head, leader, sequencer) may accept a
    # forwarded write; a stale one reaching any other replica changes no
    # store and sends nothing.
    cluster = make_cluster(protocol, 3)
    cluster.preload({7: "v0"})
    stray = cluster.replica(2)
    assert stray.orderer == 0
    stray.dispatch(1, ForwardedWrite(key=7, value="stray", origin=1, op_id=1))
    cluster.run(until=cluster.sim.now + 0.001)
    assert cluster.network.stats.messages_sent == 0
    for replica in cluster.all_replicas():
        assert replica.store.peek_record(7) is None
        assert replica.committed_value(7) == "v0"
