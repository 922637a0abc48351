"""Live shard migration: routing epochs, freeze/copy/flip, atomicity checker.

The migration contract (see :mod:`repro.cluster.sharding` and
:mod:`repro.membership.service`): a planned rebalance freezes the migrated
keys at the source shard, copies the frozen values into the target shard
through its normal replicated write path, flips the routing epoch via a
Paxos-decided view change, and releases the parked operations to the target
— after which **no operation may observe pre-migration state** (checked by
:mod:`repro.verification.migration`).
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.client import ClosedLoopClient
from repro.cluster.failures import FailureEvent, FailureInjector
from repro.cluster.sharding import ShardRouter
from repro.errors import ConfigurationError
from repro.membership.detector import FailureDetectorConfig
from repro.membership.service import MembershipConfig, MigrationRecord, PlannedMigration
from repro.membership.view import (
    SHARD_MAP_ACTIVE,
    SHARD_MAP_PREPARING,
    ShardMap,
    ShardMigration,
)
from repro.types import Operation, OpStatus
from repro.verification.history import History
from repro.verification.linearizability import LinearizabilityChecker
from repro.verification.migration import check_migration
from repro.workloads.distributions import UniformKeys
from repro.workloads.generator import WorkloadMix


# ----------------------------------------------------------------- routing
def test_router_reroutes_migrated_slice_after_apply():
    router = ShardRouter(4)
    migration = ShardMigration(source=0, target=2, stride=2, offset=0)
    # Base mapping: key 0 and key 8 belong to shard 0; key 8's sub-index
    # (8 // 4 = 2) is even, key 4's (1) is odd.
    assert router.shard_of(0) == 0 and router.shard_of(4) == 0 and router.shard_of(8) == 0
    moved = router.apply(ShardMap(epoch=2, migrations=(migration,), phase=SHARD_MAP_ACTIVE))
    assert moved and router.epoch == 2
    assert router.shard_of(0) == 2  # sub-index 0: migrated
    assert router.shard_of(8) == 2  # sub-index 2: migrated
    assert router.shard_of(4) == 0  # sub-index 1: stays
    assert router.shard_of(1) == 1 and router.shard_of(2) == 2  # other shards untouched


def test_router_ignores_preparing_and_stale_maps():
    router = ShardRouter(2)
    migration = ShardMigration(source=0, target=1)
    assert not router.apply(ShardMap(epoch=2, migrations=(migration,), phase=SHARD_MAP_PREPARING))
    assert router.shard_of(0) == 0
    assert router.apply(ShardMap(epoch=3, migrations=(migration,), phase=SHARD_MAP_ACTIVE))
    # Replayed older maps can never revert routing.
    assert not router.apply(ShardMap(epoch=2, migrations=(), phase=SHARD_MAP_ACTIVE))
    assert router.shard_of(0) == 1


def test_migration_matches_agrees_with_router():
    migration = ShardMigration(source=1, target=3, stride=2, offset=1)
    router = ShardRouter(4)
    router.apply(ShardMap(epoch=2, migrations=(migration,), phase=SHARD_MAP_ACTIVE))
    for key in range(200):
        if migration.matches(key, 4):
            assert router.shard_of(key) == 3
        else:
            assert router.shard_of(key) == key % 4


def test_router_chains_successive_migrations():
    # Shard maps carry the cumulative chain: a second rebalance must not
    # make routers forget the first one's re-routing.
    m1 = ShardMigration(source=0, target=2, stride=2, offset=0)
    m2 = ShardMigration(source=1, target=3, stride=2, offset=1)
    router = ShardRouter(4)
    router.apply(ShardMap(epoch=2, migrations=(m1,), phase=SHARD_MAP_ACTIVE))
    router.apply(ShardMap(epoch=4, migrations=(m1, m2), phase=SHARD_MAP_ACTIVE))
    for key in range(200):
        expected = key % 4
        sub = key // 4
        if expected == 0 and sub % 2 == 0:
            expected = 2  # still moved by m1
        if expected == 1 and sub % 2 == 1:
            expected = 3  # moved by m2
        assert router.shard_of(key) == expected, key
    # A migration whose source received keys from an earlier one picks
    # them up through the chained evaluation.
    m3 = ShardMigration(source=2, target=1, stride=1, offset=0)
    router.apply(ShardMap(epoch=6, migrations=(m1, m2, m3), phase=SHARD_MAP_ACTIVE))
    assert router.shard_of(0) == 1  # base 0 → m1 → 2 → m3 → 1
    assert router.shard_of(2) == 1  # base 2 → m3 → 1


def test_migration_validation():
    with pytest.raises(ConfigurationError):
        ShardMigration(source=0, target=0).validate(4)
    with pytest.raises(ConfigurationError):
        ShardMigration(source=0, target=9).validate(4)
    with pytest.raises(ConfigurationError):
        ShardMigration(source=0, target=1, stride=0).validate(4)
    ShardMigration(source=0, target=1).validate(4)


def test_cluster_config_validates_migrations():
    plan = [PlannedMigration(at_time=0.01, migration=ShardMigration(source=0, target=1))]
    with pytest.raises(ConfigurationError):
        ClusterConfig(shards=1, membership=MembershipConfig(migrations=plan)).validate()
    with pytest.raises(ConfigurationError):
        ClusterConfig(shards=2, membership=MembershipConfig(migrations=plan)).validate()
    ClusterConfig(
        shards=2, run_membership_service=True, membership=MembershipConfig(migrations=plan)
    ).validate()


# ------------------------------------------------------------- end to end
def migrating_cluster(seed: int = 5, migrate_time: float = 0.050):
    membership = MembershipConfig(
        lease_duration=0.040,
        renewal_interval=0.010,
        detection=FailureDetectorConfig(ping_interval=0.010, detection_timeout=0.150),
        migrations=[
            PlannedMigration(at_time=migrate_time, migration=ShardMigration(source=0, target=1))
        ],
    )
    return Cluster(
        ClusterConfig(
            protocol="hermes",
            num_replicas=3,
            shards=2,
            seed=seed,
            run_membership_service=True,
            membership=membership,
        )
    )


def run_migration_scenario(seed: int = 5):
    cluster = migrating_cluster(seed=seed)
    workload = WorkloadMix(distribution=UniformKeys(100), write_ratio=0.3, seed=seed)
    cluster.preload(workload.initial_dataset())
    history = History()
    clients = [
        ClosedLoopClient(
            i, cluster, workload, max_ops=10**9, think_time=50e-6,
            replica_id=i % 3, history=history,
        )
        for i in range(6)
    ]
    for client in clients:
        client.start()
    cluster.run(until=0.200)
    return cluster, workload, history


def test_migration_end_to_end():
    cluster, workload, history = run_migration_scenario()
    records = cluster.migration_records
    assert len(records) == 1
    record = records[0]
    assert 0 < record.freeze_time <= record.frozen_time <= record.copied_time <= record.flip_time
    migrated = [k for k in range(100) if record.migration.matches(k, 2)]
    assert sorted(record.values) == migrated

    for host in cluster.nodes.values():
        # Every node flipped its router and released its parked operations;
        # the freeze filter stays installed in forwarding mode so late
        # arrivals redirect to the new owner instead of the stale copy.
        assert host.router.epoch > 0
        frozen = host.shard_replicas[0]._frozen
        assert frozen is not None and frozen.forwarding and not frozen.parked
        assert host.router.shard_of(migrated[0]) == 1
        # The node's 2PC coordinator (if any) shares the flipped router.
        if host._txn_coordinator is not None:
            assert host._txn_coordinator._router is host.router

    # The target shard's replicas hold the migrated values.
    for node_id in cluster.nodes:
        target = cluster.shard_replicas[(node_id, 1)]
        for key in migrated:
            assert key in target.store

    # No operation was lost across the freeze/flip window.
    assert not history.pending()

    checks = LinearizabilityChecker().check(history, initial_values=workload.initial_dataset())
    assert all(c.linearizable for c in checks)
    result = check_migration(history, records[0])
    assert result.ok, result.violations
    assert result.reads_checked > 0
    assert result.keys_checked > 0


def test_migration_scenario_is_deterministic():
    def digest(history):
        # Op ids come from a process-global counter, so compare the
        # physically meaningful fields only.
        return [
            (r.op.key, r.op.op_type, r.start_time, r.end_time, r.status, r.value)
            for r in history.operations()
        ]

    _c1, _w1, first = run_migration_scenario(seed=9)
    _c2, _w2, second = run_migration_scenario(seed=9)
    assert digest(first) == digest(second)


def test_migration_with_slow_clients_stays_linearizable():
    """Operations routed to the source just before the flip arrive after it
    (they are in flight across the client request latency) and must reach
    the new owner via the forwarding filter, not the abandoned source copy.
    A large request latency widens that window enough to hit it reliably.
    """
    for seed in (1, 6, 7):
        cluster = migrating_cluster(seed=seed)
        workload = WorkloadMix(distribution=UniformKeys(100), write_ratio=0.3, seed=seed)
        cluster.preload(workload.initial_dataset())
        history = History()
        clients = [
            ClosedLoopClient(
                i, cluster, workload, max_ops=10**9, think_time=50e-6,
                replica_id=i % 3, history=history, request_latency=300e-6,
            )
            for i in range(6)
        ]
        for client in clients:
            client.start()
        cluster.run(until=0.200)
        record = cluster.migration_records[0]
        checks = LinearizabilityChecker().check(
            history, initial_values=workload.initial_dataset()
        )
        bad = [c for c in checks if not c.linearizable]
        assert not bad, (seed, [c.key for c in bad])
        assert check_migration(history, record).ok
        # The forwarded path leaves the source stores untouched post-copy.
        for node_id in cluster.nodes:
            source = cluster.shard_replicas[(node_id, 0)]
            for key, frozen_value in record.values.items():
                assert source.store.get(key) == frozen_value


def test_crash_during_migration_cancels_and_recovers():
    """A node crash mid-handshake must not deadlock the service: the
    migration watchdog cancels the rebalance (parked operations resume at
    the source; routing never moved) and the failure reconfiguration then
    proceeds normally.
    """
    cluster = migrating_cluster(seed=21, migrate_time=0.050)
    workload = WorkloadMix(distribution=UniformKeys(100), write_ratio=0.3, seed=21)
    cluster.preload(workload.initial_dataset())
    history = History()
    clients = [
        ClosedLoopClient(
            i, cluster, workload, max_ops=10**9, think_time=50e-6,
            replica_id=i % 3, history=history,
        )
        for i in range(6)
    ]
    for client in clients:
        client.start()
    # Crash node 2 just before the migration starts: its freeze ack never
    # arrives, so the watchdog must cancel the rebalance.
    FailureInjector(cluster, [FailureEvent.crash(0.0495, 2)]).arm()
    cluster.run(until=0.450)
    service = cluster.membership_service
    assert service.migrations_cancelled == 1
    assert service.migrations_completed == 0
    assert not cluster.migration_records
    # The crash was detected and reconfigured after the cancellation.
    assert service.reconfigurations >= 1
    assert service.view.members == frozenset({0, 1})
    # Routing never moved; no node stayed frozen.
    for node_id, host in cluster.nodes.items():
        if node_id == 2:
            continue
        assert host.router.epoch == 0
        assert host.shard_replicas[0]._frozen is None
    # Survivors' clients keep completing operations after recovery.
    checks = LinearizabilityChecker().check(history, initial_values=workload.initial_dataset())
    assert all(c.linearizable for c in checks)


# ----------------------------------------------------------------- checker
def synthetic_history(record: MigrationRecord):
    """A tiny history around one migrated key (key 0, frozen value b'F')."""
    history = History()
    pre_write = Operation.write(0, b"OLD")
    history.invoke(pre_write, 0.001)
    history.respond(pre_write, 0.002, OpStatus.OK, None)
    frozen_write = Operation.write(0, b"F")
    history.invoke(frozen_write, 0.003)
    history.respond(frozen_write, 0.004, OpStatus.OK, None)
    return history


def make_record():
    return MigrationRecord(
        migration=ShardMigration(source=0, target=1),
        freeze_time=0.010,
        frozen_time=0.011,
        copied_time=0.012,
        flip_time=0.013,
        values={0: b"F"},
    )


def test_checker_passes_frozen_and_migration_era_reads():
    record = make_record()
    history = synthetic_history(record)
    # Post-flip read of the frozen value: fine.
    read1 = Operation.read(0)
    history.invoke(read1, 0.020)
    history.respond(read1, 0.021, OpStatus.OK, b"F")
    # A write parked during the freeze, applied after the flip, then read.
    parked_write = Operation.write(0, b"NEW")
    history.invoke(parked_write, 0.0105)
    history.respond(parked_write, 0.014, OpStatus.OK, None)
    read2 = Operation.read(0)
    history.invoke(read2, 0.030)
    history.respond(read2, 0.031, OpStatus.OK, b"NEW")
    result = check_migration(history, record)
    assert result.ok, result.violations
    assert result.reads_checked == 2


def test_checker_flags_post_flip_read_of_pre_migration_state():
    record = make_record()
    history = synthetic_history(record)
    stale_read = Operation.read(0)
    history.invoke(stale_read, 0.020)
    history.respond(stale_read, 0.021, OpStatus.OK, b"OLD")  # pre-freeze value
    result = check_migration(history, record)
    assert not result.ok
    assert len(result.violations) == 1
    assert "pre-migration" in result.violations[0]


def test_checker_ignores_pre_flip_reads_and_other_keys():
    record = make_record()
    history = synthetic_history(record)
    early_read = Operation.read(0)  # invoked before the flip: unconstrained
    history.invoke(early_read, 0.005)
    history.respond(early_read, 0.006, OpStatus.OK, b"OLD")
    other_read = Operation.read(1)  # not a migrated key
    history.invoke(other_read, 0.020)
    history.respond(other_read, 0.021, OpStatus.OK, b"whatever")
    result = check_migration(history, record)
    assert result.ok
    assert result.reads_checked == 0


def test_craq_copy_ships_a_write_whose_ack_up_was_lost():
    """The copy leader is the source chain's head. A lost ``AckUp`` leaves
    the head's committed version behind a write whose client was already
    answered, so the copy ships the head's latest version, not its
    committed one: the write survives the flip."""
    membership = MembershipConfig(
        lease_duration=0.040,
        renewal_interval=0.010,
        detection=FailureDetectorConfig(ping_interval=0.010, detection_timeout=0.150),
        migrations=[PlannedMigration(at_time=0.020, migration=ShardMigration(source=0, target=1))],
    )
    cluster = Cluster(
        ClusterConfig(
            protocol="craq",
            num_replicas=3,
            shards=2,
            seed=5,
            run_membership_service=True,
            membership=membership,
        )
    )
    cluster.preload({key: f"v{key}" for key in range(16)})
    migration = cluster.config.membership.migrations[0].migration
    key = next(k for k in range(16) if k % 2 == 0 and migration.matches(k, 2))
    # Shard 0's chain is 0 -> 1 -> 2: the tail answers the write at node 2,
    # and its AckUp dies on the 1 -> 0 link.
    cluster.network.degrade_link(1, 0, loss_rate=1.0, symmetric=False)
    done = []
    cluster.replica(2).submit(Operation.write(key, "new"), lambda o, s, v: done.append(s))
    cluster.run(until=0.001)
    cluster.network.heal_link(1, 0, symmetric=False)
    assert done == [OpStatus.OK]
    head = cluster.shard_replicas[(0, 0)]
    assert head.committed_value(key) == f"v{key}" and head.latest_value(key) == "new"

    cluster.run(until=0.060)
    [record] = cluster.migration_records
    assert record.values[key] == "new"
    for node_id in cluster.nodes:
        seen = []
        cluster.replica(node_id, shard=1).submit(
            Operation.read(key), lambda o, s, v: seen.append(v)
        )
        cluster.run(until=cluster.sim.now + 0.001)
        assert seen == ["new"]
