"""Cross-shard multi-key transactions: 2PC, locks, crashes, verification.

The transaction layer (:mod:`repro.cluster.txn`) must uphold:

* committed transactions are atomic — transactional readers never observe
  a partial state of another committed transaction (strict 2PL at
  per-shard lock masters), and aborted transactions leave no trace;
* single-shard transactions commit in one phase (no vote round);
* lock conflicts abort immediately (no-wait ⇒ no distributed deadlock);
* plain operations submitted at a lock master queue behind that shard's
  key locks;
* a coordinator crash is resolved by the participants' prepare timeout
  (locks released), a lock-master crash by the coordinator's timeout;
* transaction workloads are deterministic under the seeded simulation,
  and ``txn_fraction=0`` specs derive the exact pre-transaction seeds.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.bench.harness import ExperimentSpec, Scale, run_experiment
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.txn import (
    DEFAULT_COORDINATOR_TIMEOUT,
    DEFAULT_PREPARE_TIMEOUT,
    ClientTxnSubmit,
    TxnPrepare,
    coordinator_of,
    participant_of,
)
from repro.errors import BenchmarkError, HistoryError, WorkloadError
from repro.types import Operation, OpStatus, OpType, Transaction
from repro.verification.history import History
from repro.verification.linearizability import check_history
from repro.verification.transactions import check_transactions
from repro.workloads.distributions import ZipfianKeys
from repro.workloads.generator import WorkloadMix

TINY = Scale("tiny", num_keys=200, clients_per_replica=3, ops_per_client=40)


def txn_spec(**kwargs) -> ExperimentSpec:
    defaults = dict(
        protocol="hermes",
        num_replicas=3,
        write_ratio=0.5,
        zipfian_exponent=0.99,
        shards=4,
        txn_fraction=0.3,
        txn_keys=3,
        txn_cross_shard=0.7,
        seed=13,
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults).with_scale(TINY)


def run_txn(cluster: Cluster, node_id: int, ops, max_time: float = 0.05):
    """Submit one transaction at a node and run until it completes."""
    done = []
    txn = Transaction(ops=list(ops))
    cluster.replica(node_id).submit_local(
        ClientTxnSubmit(txn, lambda t, o: done.append(o)), size_bytes=64
    )
    cluster.run_until(lambda: bool(done), check_interval=1e-5, max_time=max_time)
    assert done, "transaction never completed"
    return txn, done[0]


def preloaded(cluster: Cluster, keys: int = 24) -> Cluster:
    cluster.preload({k: f"v{k}".encode() for k in range(keys)})
    return cluster


# ------------------------------------------------------------- basic paths
@pytest.mark.parametrize("protocol", ["hermes", "craq", "zab"])
def test_unsharded_transaction_commits_and_is_visible(protocol):
    cluster = preloaded(Cluster(ClusterConfig(protocol=protocol, num_replicas=3, seed=3)))
    txn, outcome = run_txn(
        cluster,
        1,
        [Operation.read(1), Operation.write(2, b"T2"), Operation.read(3)],
    )
    assert outcome.status is OpStatus.OK
    assert outcome.values[txn.ops[0].op_id] == b"v1"
    assert outcome.values[txn.ops[2].op_id] == b"v3"
    assert txn.ops[1].op_id in outcome.commit_times
    # The committed write is visible to subsequent plain reads anywhere.
    seen = []
    cluster.replica(2).submit(Operation.read(2), lambda o, s, v: seen.append((s, v)))
    cluster.run_until(lambda: bool(seen), check_interval=1e-5, max_time=0.05)
    assert seen[0] == (OpStatus.OK, b"T2")


def test_single_shard_transactions_use_the_fast_path():
    cluster = preloaded(Cluster(ClusterConfig(protocol="hermes", num_replicas=3, shards=4, seed=5)))
    # Keys 1, 5, 9 all map to shard 1 (modulo routing).
    _txn, outcome = run_txn(
        cluster, 0, [Operation.read(1), Operation.write(5, b"W5"), Operation.read(9)]
    )
    assert outcome.status is OpStatus.OK
    coordinator = cluster.nodes[0]._txn_coordinator
    assert coordinator.txns_fastpath == 1
    assert coordinator.txns_cross_shard == 0
    # Shard 1's lock master is node 1 (rotated role ring).
    assert coordinator.masters[1] == 1
    participant = cluster.shard_replicas[(1, 1)]._txn_participant
    assert participant is not None and not participant.locks


def test_cross_shard_transaction_runs_two_phase_commit():
    cluster = preloaded(Cluster(ClusterConfig(protocol="hermes", num_replicas=3, shards=4, seed=7)))
    txn, outcome = run_txn(
        cluster, 2, [Operation.write(0, b"X0"), Operation.write(1, b"X1"), Operation.read(2)]
    )
    assert outcome.status is OpStatus.OK
    coordinator = cluster.nodes[2]._txn_coordinator
    assert coordinator.txns_cross_shard == 1
    assert coordinator.txns_committed == 1
    # Both writes carry their lock masters' commit instants.
    assert set(outcome.commit_times) == {txn.ops[0].op_id, txn.ops[1].op_id}
    for node_id in cluster.node_ids:
        for shard in (0, 1):
            replica = cluster.shard_replicas[(node_id, shard)]
            done = []
            replica.submit(Operation.read(shard), lambda o, s, v: done.append(v))
            cluster.run_until(lambda: bool(done), check_interval=1e-5, max_time=0.05)
            assert done[0] == (b"X0" if shard == 0 else b"X1")


# ----------------------------------------------------------- lock behaviour
def test_conflicting_transactions_abort_no_wait_and_locks_release():
    cluster = preloaded(Cluster(ClusterConfig(protocol="hermes", num_replicas=3, seed=9)))
    master = cluster.replica(0)
    # Hold key 4 via a prepared-but-undecided txn from a phantom coordinator.
    master.on_message(2, TxnPrepare(10_001, 2, 0, [Operation.write(4, b"H4")]))
    participant = master._txn_participant
    assert participant.locks == {4: 10_001}
    # A real transaction touching the locked key aborts immediately.
    _txn, outcome = run_txn(cluster, 1, [Operation.read(4), Operation.write(6, b"W6")])
    assert outcome.status is OpStatus.ABORTED
    assert cluster.replica(1)._txn_coordinator.txns_aborted == 1
    # An aborted transaction's writes are invisible.
    seen = []
    cluster.replica(2).submit(Operation.read(6), lambda o, s, v: seen.append(v))
    cluster.run_until(lambda: bool(seen), check_interval=1e-5, max_time=0.05)
    assert seen[0] == b"v6"
    # The phantom coordinator never decides: the prepare timeout releases
    # the lock and the next transaction on key 4 commits.
    cluster.run(until=cluster.sim.now + DEFAULT_PREPARE_TIMEOUT + 1e-3)
    assert participant.locks == {}
    assert participant.prepare_timeouts == 1
    _txn2, outcome2 = run_txn(cluster, 1, [Operation.write(4, b"N4")])
    assert outcome2.status is OpStatus.OK


def test_plain_operations_park_behind_transaction_locks():
    cluster = preloaded(Cluster(ClusterConfig(protocol="hermes", num_replicas=3, seed=11)))
    master = cluster.replica(0)
    master.on_message(2, TxnPrepare(10_002, 2, 0, [Operation.write(8, b"H8")]))
    assert master._txn_participant.locks == {8: 10_002}
    done = []
    master.submit(Operation.write(8, b"P8"), lambda o, s, v: done.append((s, cluster.sim.now)))
    cluster.run(until=1e-3)
    assert not done, "plain write should be parked behind the lock"
    assert master._txn_participant.ops_parked == 1
    cluster.run(until=DEFAULT_PREPARE_TIMEOUT + 2e-3)
    assert done and done[0][0] is OpStatus.OK
    assert done[0][1] >= DEFAULT_PREPARE_TIMEOUT


def test_transactions_reject_rmw_members():
    from repro.errors import ConfigurationError

    cluster = preloaded(Cluster(ClusterConfig(protocol="hermes", num_replicas=3, seed=17)))
    coordinator = coordinator_of(cluster.replica(0))
    with pytest.raises(ConfigurationError):
        coordinator.begin(
            Transaction(ops=[Operation.rmw(1, b"r1")]), lambda t, o: None
        )


def test_timed_out_txn_members_stay_pending_in_history():
    # TIMEOUT is indeterminate (a crash may have left the transaction
    # partially applied): its members are neither committed nor aborted,
    # so the history leaves them pending — the linearizability checker may
    # linearize or omit them, and the atomicity checker constrains neither
    # their visibility nor their invisibility.
    history = History()
    txn = Transaction(ops=[Operation.write(1, b"t1"), Operation.read(2)])
    history.invoke_txn(txn, 0.0)
    history.respond_txn(txn, 1e-3, OpStatus.TIMEOUT)
    assert history.transactions()[0].status is OpStatus.TIMEOUT
    assert all(not record.completed for record in history.operations())
    check = check_transactions(history)
    assert check.ok and check.aborted == 0 and check.committed == 0


def test_lock_masters_follow_the_membership_view():
    from repro.membership.view import MembershipView

    cluster = preloaded(Cluster(ClusterConfig(protocol="hermes", num_replicas=3, shards=4, seed=19)))
    coordinator = coordinator_of(cluster.replica(0))
    assert coordinator.masters == [0, 1, 2, 0]
    # A new view (node 0 removed) recomputes every shard's lock master, so
    # coordinators created before and after the change agree on placement.
    reference = cluster.replica(0)
    reference.view = MembershipView.initial([1, 2])
    assert coordinator.masters == [1, 2, 1, 2]


def test_lock_master_crash_times_out_the_coordinator():
    cluster = preloaded(Cluster(ClusterConfig(protocol="hermes", num_replicas=3, seed=15)))
    cluster.crash(0)  # node 0 is the single shard's lock master
    txn, outcome = run_txn(
        cluster, 1, [Operation.write(3, b"L3")], max_time=DEFAULT_COORDINATOR_TIMEOUT * 4
    )
    assert outcome.status is OpStatus.TIMEOUT
    coordinator = cluster.replica(1)._txn_coordinator
    assert coordinator.txns_timedout == 1
    assert coordinator.active_txns == 0


# ------------------------------------------------------- end-to-end (grid)
def test_txn_experiment_commits_aborts_and_checks_atomic():
    spec = txn_spec(record_history=True)
    result = run_experiment(spec)
    stats = result.cluster_stats
    assert stats["txns_committed"] > 0
    assert stats["txns_aborted"] > 0
    assert stats["txns_cross_shard"] > 0
    assert stats["txns_timedout"] == 0
    history = result.history
    txns = history.transactions()
    assert len(txns) == sum(1 for t in txns if t.completed)
    check = check_transactions(history)
    assert check.ok, check.violations
    assert check.committed == stats["txns_committed"]
    assert check.aborted == stats["txns_aborted"]
    # The merged history (plain ops + txn member ops) stays per-key
    # linearizable.
    workload = WorkloadMix(
        distribution=ZipfianKeys(TINY.num_keys, 0.99), write_ratio=spec.write_ratio, seed=spec.seed
    )
    assert check_history(history, initial_values=workload.initial_dataset())


def test_txn_experiment_is_deterministic():
    spec = txn_spec()
    a = run_experiment(spec)
    b = run_experiment(spec)
    assert a.throughput == b.throughput
    assert a.overall_latency == b.overall_latency
    assert a.cluster_stats == b.cluster_stats


def test_txn_workload_counts_transactions_once():
    spec = txn_spec()
    result = run_experiment(spec)
    sessions = spec.num_replicas * TINY.clients_per_replica
    # Each session issues ops_per_client *requests*; transactions contribute
    # one request but several per-operation results.
    assert len(result.results) > sessions * TINY.ops_per_client
    assert result.cluster_stats["txns_committed"] + result.cluster_stats["txns_aborted"] > 0


def test_open_loop_transactions_are_supported():
    spec = txn_spec(client_model="open", offered_load=2.0e6, shards=2, txn_cross_shard=1.0)
    result = run_experiment(spec)
    assert result.cluster_stats["txns_committed"] > 0


def test_parallel_shard_mode_rejects_transactions():
    with pytest.raises(BenchmarkError):
        run_experiment(txn_spec(shard_mode="parallel"))


def test_txn_fraction_zero_is_byte_identical_to_pre_txn_runs():
    # The spec fields exist, but a txn-free run must produce the exact
    # stream and results of the pre-transaction code path.
    base = ExperimentSpec(
        protocol="hermes", num_replicas=3, write_ratio=0.25, seed=11
    ).with_scale(TINY)
    with_fields = replace(base, txn_fraction=0.0, txn_keys=5, txn_cross_shard=0.9)
    a = run_experiment(base)
    b = run_experiment(with_fields)
    assert a.throughput == b.throughput
    assert a.overall_latency == b.overall_latency
    assert a.cluster_stats == b.cluster_stats


# ------------------------------------------------------------ txn workloads
def test_txn_mix_generates_transactions_with_requested_shape():
    workload = WorkloadMix(
        distribution=ZipfianKeys(400, 0.99),
        write_ratio=0.5,
        seed=21,
        txn_fraction=0.4,
        txn_keys=3,
        txn_cross_shard=1.0,
        txn_num_shards=4,
    )
    txns, singles = [], []
    for _ in range(400):
        item = workload.next_operation(0)
        (txns if isinstance(item, Transaction) else singles).append(item)
    assert 0.3 < len(txns) / 400 < 0.5
    assert singles, "plain operations must still appear"
    for txn in txns:
        keys = txn.keys
        assert len(keys) == len(set(keys)) == 3
        shards = {key % 4 for key in keys}
        assert len(shards) >= 2, "cross-shard txns must span shards"
        assert all(op.op_type in (OpType.READ, OpType.WRITE) for op in txn.ops)


def test_txn_mix_single_shard_keys_stay_on_one_shard():
    workload = WorkloadMix(
        distribution=ZipfianKeys(400, 0.99),
        write_ratio=0.5,
        seed=22,
        txn_fraction=1.0,
        txn_keys=3,
        txn_cross_shard=0.0,
        txn_num_shards=4,
    )
    for _ in range(100):
        txn = workload.next_operation(1)
        assert isinstance(txn, Transaction)
        assert len({key % 4 for key in txn.keys}) == 1


def test_txn_mix_zero_fraction_preserves_the_plain_stream():
    plain = WorkloadMix(distribution=ZipfianKeys(300, 0.99), write_ratio=0.3, seed=5)
    with_fields = WorkloadMix(
        distribution=ZipfianKeys(300, 0.99),
        write_ratio=0.3,
        seed=5,
        txn_fraction=0.0,
        txn_keys=4,
        txn_cross_shard=0.5,
        txn_num_shards=8,
    )
    for _ in range(200):
        a = plain.next_operation(3)
        b = with_fields.next_operation(3)
        assert (a.op_type, a.key, a.payload) == (b.op_type, b.key, b.payload)


def test_txn_mix_validates_parameters():
    with pytest.raises(WorkloadError):
        WorkloadMix(distribution=ZipfianKeys(10, 0.99), txn_fraction=1.5)
    with pytest.raises(WorkloadError):
        WorkloadMix(distribution=ZipfianKeys(10, 0.99), txn_keys=0)
    with pytest.raises(WorkloadError):
        WorkloadMix(distribution=ZipfianKeys(10, 0.99), txn_cross_shard=-0.1)


# ------------------------------------------------------------- verification
def _committed_txn(history: History, time: float, reads=(), writes=(), commit_times=None):
    ops = [Operation.read(k) for k, _v in reads] + [Operation.write(k, v) for k, v in writes]
    txn = Transaction(ops=ops)
    history.invoke_txn(txn, time)
    values = {
        op.op_id: value for op, (_k, value) in zip(ops, reads) if op.op_type is OpType.READ
    }
    history.respond_txn(
        txn,
        time + 1e-5,
        OpStatus.OK,
        values,
        commit_times
        or {op.op_id: time + 5e-6 for op in ops if op.op_type is not OpType.READ},
    )
    return txn


def test_checker_accepts_consistent_transactions():
    history = History()
    _committed_txn(history, 0.0, writes=[("a", b"a1"), ("b", b"b1")])
    _committed_txn(history, 1.0, reads=[("a", b"a1"), ("b", b"b1")])
    check = check_transactions(history)
    assert check.ok and check.committed == 2 and check.reads_checked == 1


def test_checker_detects_fractured_reads():
    history = History()
    _committed_txn(history, 0.0, writes=[("a", b"a1"), ("b", b"b1")])
    # Sees W's write on `a` but the initial value on `b`: fractured.
    _committed_txn(history, 1.0, reads=[("a", b"a1"), ("b", b"b:0:x")])
    check = check_transactions(history)
    assert not check.ok
    assert "fractured" in check.violations[0]


def test_checker_detects_visible_aborted_writes():
    history = History()
    ops = [Operation.write("a", b"dead")]
    txn = Transaction(ops=ops)
    history.invoke_txn(txn, 0.0)
    history.respond_txn(txn, 1e-5, OpStatus.ABORTED)
    reader = Operation.read("a")
    history.invoke(reader, 1.0)
    history.respond(reader, 1.0 + 1e-5, OpStatus.OK, b"dead")
    check = check_transactions(history)
    assert not check.ok
    assert "aborted" in check.violations[0]


def test_history_guards_double_txn_recording():
    history = History()
    txn = Transaction(ops=[Operation.read(1)])
    history.invoke_txn(txn, 0.0)
    with pytest.raises(HistoryError):
        history.invoke_txn(txn, 0.1)
    history.respond_txn(txn, 0.2, OpStatus.OK, {txn.ops[0].op_id: b"x"})
    with pytest.raises(HistoryError):
        history.respond_txn(txn, 0.3, OpStatus.OK)
    with pytest.raises(HistoryError):
        history.respond_txn(Transaction(ops=[Operation.read(2)]), 0.1, OpStatus.OK)


def test_aborted_txn_members_are_excluded_from_linearizability():
    history = History()
    ops = [Operation.write(1, b"zz")]
    txn = Transaction(ops=ops)
    history.invoke_txn(txn, 0.0)
    history.respond_txn(txn, 1e-5, OpStatus.ABORTED)
    reader = Operation.read(1)
    history.invoke(reader, 1.0)
    history.respond(reader, 1.0 + 1e-5, OpStatus.OK, b"init")
    assert check_history(history, initial_values={1: b"init"})


# ------------------------------------------------------------ lazy plumbing
def test_txn_machinery_is_lazy_for_txn_free_runs():
    spec = ExperimentSpec(protocol="hermes", num_replicas=3, seed=4).with_scale(TINY)
    result = run_experiment(spec)
    assert result.cluster_stats["txns_committed"] == 0
    cluster = Cluster(ClusterConfig(protocol="hermes", num_replicas=3, seed=4))
    assert all(r._txn_participant is None for r in cluster.all_replicas())
    assert all(r._txn_coordinator is None for r in cluster.all_replicas())


def test_coordinator_and_participant_are_created_once():
    cluster = preloaded(Cluster(ClusterConfig(protocol="hermes", num_replicas=3, seed=6)))
    node = cluster.replica(1)
    coordinator = coordinator_of(node)
    assert coordinator_of(node) is coordinator
    participant = participant_of(cluster.replica(0))
    assert participant_of(cluster.replica(0)) is participant
