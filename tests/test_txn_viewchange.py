"""Transaction recovery across membership view changes.

When a lock master leaves the view, in-flight 2PC must not wait for the
crash timeouts: participants abort their prepared transactions and release
the orphaned locks the moment the new view installs, and coordinators
resolve transactions whose dispatched masters are gone. The new lock master
then starts from the released state — its lock table is empty because every
lock the stranded transactions held was torn down on the view change.
"""

from __future__ import annotations

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.txn import (
    DEFAULT_COORDINATOR_TIMEOUT,
    TxnPrepare,
    coordinator_of,
    participant_of,
)
from repro.membership.view import MembershipView
from repro.types import Operation, OpStatus, Transaction


def preloaded(cluster: Cluster, keys: int = 24) -> Cluster:
    cluster.preload({k: f"v{k}".encode() for k in range(keys)})
    return cluster


def test_participant_aborts_when_coordinator_leaves_the_view():
    cluster = preloaded(Cluster(ClusterConfig(protocol="hermes", num_replicas=3, seed=3)))
    master = cluster.replica(0)
    # Node 2 coordinates a prepare that locks key 4 at node 0.
    master.on_message(2, TxnPrepare(20_001, 2, 0, [Operation.write(4, b"X4")]))
    participant = master._txn_participant
    assert participant.locks == {4: 20_001}
    assert 20_001 in participant.prepared

    # The coordinator's node is removed from the view: the prepared
    # transaction aborts and its locks release immediately.
    master._view_changed(MembershipView.initial([0, 1, 2]).without(2))
    assert participant.prepared == {}
    assert participant.locks == {}
    assert participant.view_change_aborts == 1


def test_participant_releases_locks_when_mastership_moves():
    # Sharded cluster: node 1 is shard 1's lock master (rotated role ring).
    cluster = preloaded(Cluster(ClusterConfig(protocol="hermes", num_replicas=3, shards=2, seed=3)))
    master = cluster.shard_replicas[(1, 1)]
    master.on_message(2, TxnPrepare(20_002, 2, 1, [Operation.write(1, b"X1")]))
    participant = master._txn_participant
    assert participant.locks == {1: 20_002}

    # Removing node 0 shifts the ring: shard 1's master becomes node 2, so
    # node 1 tears its prepared transactions down and releases the locks —
    # the new master starts with an empty lock table by construction.
    new_view = MembershipView.initial([0, 1, 2]).without(0)
    assert sorted(new_view.members)[1 % 2] == 2
    master._view_changed(new_view)
    assert participant.prepared == {}
    assert participant.locks == {}
    assert participant.view_change_aborts == 1


def test_view_change_abort_resumes_parked_plain_ops():
    cluster = preloaded(Cluster(ClusterConfig(protocol="hermes", num_replicas=3, seed=3)))
    master = cluster.replica(0)
    master.on_message(2, TxnPrepare(20_003, 2, 0, [Operation.write(8, b"X8")]))
    participant = master._txn_participant
    done = []
    master.submit(Operation.write(8, b"P8"), lambda o, s, v: done.append(s))
    cluster.run(until=1e-3)
    assert not done  # parked behind the lock
    assert participant.ops_parked == 1

    # Install the post-failure view on every survivor (as m-updates would;
    # epoch-tagged protocol messages are dropped across epochs otherwise).
    new_view = MembershipView.initial([0, 1, 2]).without(2)
    master._view_changed(new_view)
    cluster.replica(1)._view_changed(new_view)
    cluster.run(until=2e-3)
    # Resumed well before the prepare timeout (5 ms) would have fired.
    assert done == [OpStatus.OK]
    assert participant.locks == {}


def test_coordinator_aborts_instead_of_waiting_for_timeout():
    cluster = preloaded(Cluster(ClusterConfig(protocol="hermes", num_replicas=3, shards=2, seed=3)))
    shard0 = cluster.replica(0)
    outcomes = []
    txn = Transaction(ops=[Operation.write(0, b"C0"), Operation.write(1, b"C1")])
    shard0.submit(txn, lambda t, o: outcomes.append(o))
    # Deliver the hand-off but stop before any vote can arrive.
    cluster.run(until=2e-6)
    coordinator = coordinator_of(shard0)
    assert coordinator.active_txns == 1
    state = coordinator._active[txn.txn_id]
    assert state.masters == {0: 0, 1: 1}

    # Shard 1's dispatched master (node 1) leaves the view: the coordinator
    # resolves the transaction now rather than waiting for its timeout.
    before = cluster.sim.now
    coordinator.on_view_change(MembershipView.initial([0, 1, 2]).without(1))
    assert outcomes and outcomes[0].status is OpStatus.ABORTED
    assert coordinator.txns_view_aborted == 1
    assert cluster.sim.now == before  # resolved synchronously, no timeout wait

    # The abort decisions released the surviving participants' locks.
    cluster.run(until=cluster.sim.now + 0.01)
    for replica in cluster.all_replicas():
        participant = replica._txn_participant
        if participant is not None:
            assert participant.locks == {}


def test_coordinator_reports_timeout_when_commit_was_decided():
    cluster = preloaded(Cluster(ClusterConfig(protocol="hermes", num_replicas=3, shards=2, seed=3)))
    shard0 = cluster.replica(0)
    outcomes = []
    txn = Transaction(ops=[Operation.write(0, b"D0"), Operation.write(1, b"D1")])
    shard0.submit(txn, lambda t, o: outcomes.append(o))
    coordinator = coordinator_of(shard0)
    # Run until the commit decision went out but force the view change
    # before the acks resolve it.
    cluster.run_until(
        lambda: txn.txn_id in coordinator._active
        and coordinator._active[txn.txn_id].decided_commit,
        check_interval=1e-6,
        max_time=0.05,
    )
    coordinator.on_view_change(MembershipView.initial([0, 1, 2]).without(1))
    # Commit was decided but the departed master's ack will never come: the
    # outcome is indeterminate, reported as TIMEOUT (not OK, not ABORTED).
    assert outcomes and outcomes[0].status is OpStatus.TIMEOUT
    assert coordinator.txns_view_aborted == 1


def test_fastpath_with_dead_master_resolves_as_timeout():
    # A single-shard (fast-path) visit both locks and applies: if the
    # master dies before its reply, the coordinator cannot distinguish an
    # applied-but-unacked commit from a never-delivered request, so the
    # outcome must be the indeterminate TIMEOUT — never ABORTED (the
    # writes may be replicated and visible).
    cluster = preloaded(Cluster(ClusterConfig(protocol="hermes", num_replicas=3, shards=2, seed=3)))
    shard0 = cluster.replica(0)
    outcomes = []
    txn = Transaction(ops=[Operation.write(1, b"F1"), Operation.write(3, b"F3")])  # both shard 1
    shard0.submit(txn, lambda t, o: outcomes.append(o))
    cluster.run(until=2e-6)
    coordinator = coordinator_of(shard0)
    assert coordinator._active[txn.txn_id].masters == {1: 1}
    coordinator.on_view_change(MembershipView.initial([0, 1, 2]).without(1))
    assert outcomes and outcomes[0].status is OpStatus.TIMEOUT


def test_moved_mastership_aborts_undecided_cross_shard_txn():
    # Node 0 leaves the view: shard 1's mastership shifts from node 1 to
    # node 2 even though node 1 is alive. An undecided cross-shard txn
    # that dispatched to node 1 cannot complete there (node 1's
    # participant aborts on its own view-change hook), so the coordinator
    # resolves it as a clean abort instead of deciding a commit no one
    # can apply.
    cluster = preloaded(Cluster(ClusterConfig(protocol="hermes", num_replicas=3, shards=2, seed=3)))
    shard0 = cluster.replica(1)
    outcomes = []
    txn = Transaction(ops=[Operation.write(0, b"M0"), Operation.write(1, b"M1")])
    shard0.submit(txn, lambda t, o: outcomes.append(o))
    cluster.run(until=2e-6)
    coordinator = coordinator_of(shard0)
    assert coordinator._active[txn.txn_id].masters == {0: 0, 1: 1}
    new_view = MembershipView.initial([0, 1, 2]).without(0)
    for replica in cluster.replicas_on(1):
        replica._view_changed(new_view)
    coordinator.on_view_change(new_view)
    assert outcomes and outcomes[0].status is OpStatus.ABORTED
    assert coordinator.txns_view_aborted == 1


def test_demoted_master_replies_failure_for_fastpath_txns():
    # A live but demoted master's view-change abort must answer an in-flight
    # one-phase (single-shard) visit explicitly, so its coordinator resolves
    # without waiting for the timeout.
    cluster = preloaded(Cluster(ClusterConfig(protocol="hermes", num_replicas=3, shards=2, seed=3)))
    master = cluster.shard_replicas[(1, 1)]  # node 1 masters shard 1
    # An in-flight write on key 1 at the master stalls the visit's read, so
    # the visit is still prepared when the demoting view installs.
    master.submit(Operation.write(1, b"W1"), lambda op, status, value: None)
    outcomes = []
    txn = Transaction(ops=[Operation.read(1)])
    cluster.replica(2).submit(txn, lambda t, o: outcomes.append((o.status, cluster.sim.now)))
    participant = participant_of(master)
    cluster.run_until(
        lambda: txn.txn_id in participant.prepared, check_interval=1e-7, max_time=1e-3
    )
    assert participant.prepared[txn.txn_id].reads_outstanding == 1
    assert participant.locks == {1: txn.txn_id}
    assert coordinator_of(cluster.replica(2)).active_txns == 1
    start = cluster.sim.now

    # Removing node 0 demotes node 1 from shard 1's mastership (node 2 takes
    # it over); nodes 1 and 2 install the view.
    new_view = MembershipView.initial([0, 1, 2]).without(0)
    for node_id in (1, 2):
        cluster.nodes[node_id]._view_changed(new_view)
    assert participant.prepared == {}
    assert participant.locks == {}
    cluster.run(until=start + DEFAULT_COORDINATOR_TIMEOUT * 2)
    assert len(outcomes) == 1
    status, at = outcomes[0]
    assert status is OpStatus.ABORTED
    assert at - start < DEFAULT_COORDINATOR_TIMEOUT / 10
    assert participant.locks == {}


def test_new_lock_master_serves_transactions_after_view_change():
    cluster = preloaded(Cluster(ClusterConfig(protocol="hermes", num_replicas=3, shards=2, seed=3)))
    shard0 = cluster.replica(0)
    coordinator = coordinator_of(shard0)
    # Install the post-failure view everywhere (as an m-update would).
    new_view = MembershipView.initial([0, 1, 2]).without(1)
    for node_id in (0, 2):
        for replica in cluster.replicas_on(node_id):
            replica._view_changed(new_view)
    # Shard 1's lock master is now node 2; a fresh transaction commits there.
    assert coordinator.masters[1] == 2
    outcomes = []
    txn = Transaction(ops=[Operation.write(0, b"N0"), Operation.write(1, b"N1")])
    shard0.submit(txn, lambda t, o: outcomes.append(o))
    cluster.run_until(lambda: bool(outcomes), check_interval=1e-5, max_time=0.05)
    assert outcomes[0].status is OpStatus.OK
    new_master = cluster.shard_replicas[(2, 1)]
    assert new_master._txn_participant is not None
    assert new_master._txn_participant.locks == {}  # released after commit
