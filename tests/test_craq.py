"""CRAQ baseline: chain topology, local/dirty reads, chain writes."""

from __future__ import annotations

import pytest

from repro.protocols.craq import CraqRecord, CraqReplica
from repro.types import Operation, OpStatus
from tests.conftest import make_cluster, submit_and_run


@pytest.fixture
def craq_cluster():
    return make_cluster("craq", 3)


def test_chain_roles(craq_cluster):
    head = craq_cluster.replica(0)
    mid = craq_cluster.replica(1)
    tail = craq_cluster.replica(2)
    assert head.is_head and not head.is_tail
    assert not mid.is_head and not mid.is_tail
    assert tail.is_tail and not tail.is_head
    assert head.successor() == 1
    assert tail.predecessor() == 1
    assert head.predecessor() is None
    assert tail.successor() is None


def test_write_propagates_down_whole_chain(craq_cluster):
    craq_cluster.preload({"k": "v0"})
    status, _ = submit_and_run(craq_cluster, 1, Operation.write("k", "v1"))
    assert status is OpStatus.OK
    craq_cluster.run(until=craq_cluster.sim.now + 0.001)
    for replica in craq_cluster.all_replicas():
        record = replica.store.try_get_record("k")
        assert record.committed_value() == "v1"
        assert not record.dirty


def test_clean_read_served_locally(craq_cluster):
    craq_cluster.preload({"k": "v0"})
    status, value = submit_and_run(craq_cluster, 1, Operation.read("k"))
    assert value == "v0"
    assert craq_cluster.replica(1).reads_served_locally == 1
    assert craq_cluster.network.stats.messages_sent == 0


def test_dirty_read_queries_the_tail(craq_cluster):
    """A read of a dirty key at a non-tail node asks the tail for the committed version."""
    craq_cluster.preload({"k": "old"})
    reads = []
    craq_cluster.sim.schedule(
        0.0,
        lambda: craq_cluster.replica(0).submit(Operation.write("k", "new"), lambda o, s, v: None),
    )
    # Read at the head shortly after it applied the dirty write but before the ack wave.
    craq_cluster.sim.schedule(
        1e-6,
        lambda: craq_cluster.replica(0).submit(
            Operation.read("k"), lambda o, s, v: reads.append(v)
        ),
    )
    craq_cluster.run(until=0.01)
    assert len(reads) == 1
    assert reads[0] in ("old", "new")
    assert craq_cluster.replica(0).tail_queries == 1
    assert craq_cluster.replica(0).reads_served_remotely == 1


def test_tail_reads_never_redirect(craq_cluster):
    craq_cluster.preload({"k": "old"})
    craq_cluster.sim.schedule(
        0.0,
        lambda: craq_cluster.replica(0).submit(Operation.write("k", "new"), lambda o, s, v: None),
    )
    reads = []
    craq_cluster.sim.schedule(
        1e-6,
        lambda: craq_cluster.replica(2).submit(
            Operation.read("k"), lambda o, s, v: reads.append(v)
        ),
    )
    craq_cluster.run(until=0.01)
    assert craq_cluster.replica(2).tail_queries == 0


def test_writes_from_any_node_serialize_through_head(craq_cluster):
    craq_cluster.preload({"k": 0})
    for i, node in enumerate([2, 1, 0, 2, 1]):
        status, _ = submit_and_run(craq_cluster, node, Operation.write("k", i))
        assert status is OpStatus.OK
    craq_cluster.run(until=craq_cluster.sim.now + 0.001)
    head_record = craq_cluster.replica(0).store.try_get_record("k")
    assert head_record.committed_version == 5
    values = {r.store.try_get_record("k").committed_value() for r in craq_cluster.all_replicas()}
    assert values == {4}


def test_craq_write_latency_grows_with_chain_length():
    latencies = {}
    for n in (3, 7):
        cluster = make_cluster("craq", n)
        cluster.preload({"k": 0})
        done = []
        start = cluster.sim.now
        cluster.replica(0).submit(Operation.write("k", 1), lambda o, s, v: done.append(cluster.sim.now))
        cluster.run_until(lambda: bool(done), check_interval=1e-6, max_time=0.01)
        latencies[n] = done[0] - start
    assert latencies[7] > latencies[3] * 1.5


def test_rmw_treated_as_chain_write(craq_cluster):
    craq_cluster.preload({"k": "free"})
    status, _ = submit_and_run(craq_cluster, 1, Operation.rmw("k", "held", compare="free"))
    assert status is OpStatus.OK


def test_key_meta_versions_pruned_after_commit():
    record = CraqRecord("v0")
    assert record.versions == {0: "v0"}
    record.apply(1, "v1")
    record.apply(2, "v2")
    assert record.dirty
    record.commit(2)
    assert not record.dirty
    assert 0 not in record.versions
    assert record.committed_value() == "v2"


def test_features():
    features = CraqReplica.features()
    assert features.local_reads
    assert not features.decentralized_writes
    assert features.write_latency_rtt == "O(n)"


def test_view_change_rebuilds_chain(craq_cluster):
    replica = craq_cluster.replica(0)
    replica.on_view_change(replica.view.without(2))
    assert replica.chain == [0, 1]


def test_committed_value_tracks_writes_not_preload(craq_cluster):
    # CRAQ keeps committed state in its per-key version map and never
    # rewrites the raw record value after preload. State transfer must
    # therefore read through committed_value(); store.get would return the
    # preload-era value forever (the stale-migration-copy bug found by
    # fault-schedule fuzzing).
    craq_cluster.preload({"k": "initial"})
    submit_and_run(craq_cluster, 0, Operation.write("k", "current"))
    craq_cluster.run(until=craq_cluster.sim.now + 1e-3)
    for replica in craq_cluster.all_replicas():
        assert replica.committed_value("k") == "current"
