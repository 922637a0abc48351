"""Hermes protocol: basic reads, writes, states and message flow."""

from __future__ import annotations

import pytest

from repro.core.replica import HermesReplica
from repro.core.state import HermesRecord, KeyState
from repro.core.timestamps import Timestamp
from repro.types import Operation, OpStatus
from tests.conftest import make_cluster, submit_and_run


def test_read_of_preloaded_key_is_local(hermes_cluster):
    hermes_cluster.preload({"k": "v0"})
    status, value = submit_and_run(hermes_cluster, 0, Operation.read("k"))
    assert status is OpStatus.OK
    assert value == "v0"
    assert hermes_cluster.replica(0).reads_served_locally == 1
    # No protocol traffic is needed for a local read.
    assert hermes_cluster.network.stats.messages_sent == 0


def test_read_of_untouched_key_allocates_no_metadata_and_still_invalidates(hermes_cluster):
    """A never-written key is Valid by definition: the read is served from
    the shared base with no record; a later write still invalidates it,
    stalls reads until the VAL, and leaves the key one Hermes record."""
    hermes_cluster.preload({"k": "v0"})
    follower = hermes_cluster.replica(1)
    status, value = submit_and_run(hermes_cluster, 1, Operation.read("k"))
    assert (status, value) == (OpStatus.OK, "v0")
    assert follower.reads_served_locally == 1
    assert follower.key_state("k") is KeyState.VALID
    assert "k" not in follower.store._records  # served from the shared base

    read_result = []
    hermes_cluster.sim.schedule(
        0.0,
        lambda: hermes_cluster.replica(0).submit(Operation.write("k", "v1"), lambda o, s, v: None),
    )
    # Right after the INV reaches node 1, before the VAL (as in
    # test_reads_stall_while_key_invalid).
    hermes_cluster.sim.schedule(
        3.0e-6,
        lambda: follower.submit(Operation.read("k"), lambda o, s, v: read_result.append((s, v))),
    )
    hermes_cluster.run(until=hermes_cluster.sim.now + 0.01)
    assert follower.stall_events == 1
    assert read_result == [(OpStatus.OK, "v1")]
    record = follower.store.peek_record("k")
    assert type(record) is HermesRecord
    assert (record.value, record.state) == ("v1", KeyState.VALID)
    assert follower.reads_served_locally == 2


def test_read_of_unknown_key_returns_none(hermes_cluster):
    status, value = submit_and_run(hermes_cluster, 1, Operation.read("missing"))
    assert status is OpStatus.OK
    assert value is None


def test_write_commits_and_is_visible_everywhere(hermes_cluster):
    hermes_cluster.preload({"k": "v0"})
    status, value = submit_and_run(hermes_cluster, 1, Operation.write("k", "v1"))
    assert status is OpStatus.OK
    hermes_cluster.run(until=hermes_cluster.sim.now + 0.001)
    for replica in hermes_cluster.all_replicas():
        assert replica.store.get("k") == "v1"
        assert replica.key_state("k") is KeyState.VALID


def test_any_replica_can_coordinate_writes(five_node_hermes):
    five_node_hermes.preload({"k": 0})
    for node_id in five_node_hermes.node_ids:
        status, _ = submit_and_run(five_node_hermes, node_id, Operation.write("k", node_id))
        assert status is OpStatus.OK
    five_node_hermes.run(until=five_node_hermes.sim.now + 0.001)
    values = {r.store.get("k") for r in five_node_hermes.all_replicas()}
    assert values == {five_node_hermes.node_ids[-1]}


def test_write_message_flow_counts(hermes_cluster):
    """One write = (n-1) INVs + (n-1) ACKs + (n-1) VALs."""
    hermes_cluster.preload({"k": 0})
    submit_and_run(hermes_cluster, 0, Operation.write("k", 1))
    hermes_cluster.run(until=hermes_cluster.sim.now + 0.001)
    assert hermes_cluster.network.stats.messages_sent == 3 * (3 - 1)


def test_write_timestamp_advances_with_coordinator_cid(hermes_cluster):
    hermes_cluster.preload({"k": 0})
    submit_and_run(hermes_cluster, 2, Operation.write("k", 1))
    hermes_cluster.run(until=hermes_cluster.sim.now + 0.001)
    ts = hermes_cluster.replica(0).key_timestamp("k")
    assert ts.version > 0
    assert ts.cid == 2


def test_commit_point_is_all_acks_not_vals(hermes_cluster):
    """The client is answered once all ACKs arrive, before VALs complete."""
    hermes_cluster.preload({"k": 0})
    done = []
    hermes_cluster.replica(0).submit(Operation.write("k", 1), lambda o, s, v: done.append(s))
    hermes_cluster.run_until(lambda: bool(done), check_interval=1e-6, max_time=0.01)
    committed_at = hermes_cluster.sim.now
    # At the commit point at least one follower may still be Invalid (its VAL
    # is still in flight).
    follower_states = {hermes_cluster.replica(n).key_state("k") for n in (1, 2)}
    assert KeyState.INVALID in follower_states
    hermes_cluster.run(until=committed_at + 0.001)
    assert all(
        hermes_cluster.replica(n).key_state("k") is KeyState.VALID for n in hermes_cluster.node_ids
    )


def test_reads_stall_while_key_invalid(hermes_cluster):
    """A read that arrives at an invalidated follower waits for the VAL."""
    hermes_cluster.preload({"k": "old"})
    read_result = []
    write_done = []

    def start_write():
        hermes_cluster.replica(0).submit(
            Operation.write("k", "new"), lambda o, s, v: write_done.append(s)
        )

    def start_read():
        hermes_cluster.replica(1).submit(
            Operation.read("k"), lambda o, s, v: read_result.append((s, v))
        )

    hermes_cluster.sim.schedule(0.0, start_write)
    # Issue the read right after the INV reaches node 1 but before the VAL.
    hermes_cluster.sim.schedule(3.0e-6, start_read)
    hermes_cluster.run(until=0.01)
    assert read_result == [(OpStatus.OK, "new")]


def test_sequential_writes_to_same_key_from_same_node(hermes_cluster):
    hermes_cluster.preload({"k": 0})
    for i in range(1, 6):
        status, _ = submit_and_run(hermes_cluster, 0, Operation.write("k", i))
        assert status is OpStatus.OK
    hermes_cluster.run(until=hermes_cluster.sim.now + 0.001)
    assert hermes_cluster.replica(2).store.get("k") == 5
    assert hermes_cluster.replica(2).key_timestamp("k").version == 10  # +2 per write


def test_writes_to_different_keys_proceed_concurrently(five_node_hermes):
    """Inter-key concurrency: many keys written at once, all commit."""
    five_node_hermes.preload({f"k{i}": 0 for i in range(10)})
    done = []
    for i in range(10):
        node = i % 5
        five_node_hermes.replica(node).submit(
            Operation.write(f"k{i}", i), lambda o, s, v: done.append(s)
        )
    five_node_hermes.run_until(lambda: len(done) == 10, check_interval=1e-5, max_time=0.05)
    assert all(s is OpStatus.OK for s in done)


def test_single_replica_cluster_commits_immediately():
    cluster = make_cluster("hermes", 1)
    cluster.preload({"k": 0})
    status, value = submit_and_run(cluster, 0, Operation.write("k", 7))
    assert status is OpStatus.OK
    assert cluster.replica(0).store.get("k") == 7


def test_unavailable_when_crashed(hermes_cluster):
    hermes_cluster.preload({"k": 0})
    hermes_cluster.crash(0)
    done = []
    hermes_cluster.replica(0).submit(Operation.read("k"), lambda o, s, v: done.append(s))
    hermes_cluster.run(until=0.005)
    # A crashed replica never answers.
    assert done == []


def test_features_match_table_2():
    features = HermesReplica.features()
    assert features.local_reads
    assert features.decentralized_writes
    assert features.inter_key_concurrent_writes
    assert features.consistency == "linearizable"
    assert features.write_latency_rtt == "1"


def test_writes_committed_counter(hermes_cluster):
    hermes_cluster.preload({"k": 0})
    for i in range(3):
        submit_and_run(hermes_cluster, i % 3, Operation.write("k", i))
    assert hermes_cluster.total_stat("writes_committed") == 3


def test_o1_skips_vals_only_when_superseded(hermes_cluster):
    """In a conflict-free run, every write broadcasts its VALs (no O1 savings)."""
    hermes_cluster.preload({"k": 0})
    submit_and_run(hermes_cluster, 0, Operation.write("k", 1))
    hermes_cluster.run(until=hermes_cluster.sim.now + 0.001)
    assert hermes_cluster.total_stat("vals_skipped") == 0


def test_local_value_applied_at_coordinator_immediately(hermes_cluster):
    hermes_cluster.preload({"k": "old"})
    hermes_cluster.replica(0).submit(Operation.write("k", "new"), lambda o, s, v: None)
    hermes_cluster.run(until=2e-6)
    # Before any ACK can arrive the coordinator has applied the value locally
    # and holds the key in Write state.
    assert hermes_cluster.replica(0).store.get("k") == "new"
    assert hermes_cluster.replica(0).key_state("k") is KeyState.WRITE
