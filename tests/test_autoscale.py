"""Elastic resharding policy: decision logic, determinism, end-to-end runs.

The autoscaler (:mod:`repro.cluster.autoscale`) watches per-shard load and
drives the PR 5 migration mechanism. Unit tests exercise the decision rule
on stub counters; the end-to-end tests run a hot-shard workload and check
the property the routing layer must uphold under any number of chained
(and cancelled-then-retried) rounds: **router epochs never decrease**, and
every router converges to the service's applied chain.
"""

from __future__ import annotations

import pytest

from repro.cluster.autoscale import AutoscaleConfig, Autoscaler
from repro.cluster.client import ClosedLoopClient
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.failures import FailureEvent, FailureInjector
from repro.cluster.rebalance_plan import routed_shard
from repro.errors import ConfigurationError
from repro.membership.detector import FailureDetectorConfig
from repro.membership.service import MembershipConfig
from repro.membership.view import MembershipView, ShardMigration
from repro.verification import check_all
from repro.verification.history import History
from repro.workloads.distributions import ShiftingHotspotKeys
from repro.workloads.generator import WorkloadMix


# ------------------------------------------------------------ config checks
def test_autoscale_config_validation():
    AutoscaleConfig().validate()
    with pytest.raises(ConfigurationError):
        AutoscaleConfig(interval=0).validate()
    with pytest.raises(ConfigurationError):
        AutoscaleConfig(window_ticks=0).validate()
    with pytest.raises(ConfigurationError):
        AutoscaleConfig(imbalance_threshold=1.0).validate()
    with pytest.raises(ConfigurationError):
        AutoscaleConfig(min_ops_per_window=-1).validate()
    with pytest.raises(ConfigurationError):
        AutoscaleConfig(txn_conflict_weight=-0.1).validate()
    with pytest.raises(ConfigurationError):
        AutoscaleConfig(cooldown=-1e-3).validate()
    with pytest.raises(ConfigurationError):
        AutoscaleConfig(max_rounds=0).validate()


def test_cluster_config_validates_autoscale():
    autoscale = AutoscaleConfig()
    with pytest.raises(ConfigurationError):
        ClusterConfig(shards=1, membership=MembershipConfig(autoscale=autoscale)).validate()
    with pytest.raises(ConfigurationError):
        ClusterConfig(shards=2, membership=MembershipConfig(autoscale=autoscale)).validate()
    ClusterConfig(
        shards=2,
        run_membership_service=True,
        membership=MembershipConfig(autoscale=autoscale),
    ).validate()


# ------------------------------------------------------- decision-rule stubs
class _StubReplica:
    def __init__(self) -> None:
        self.ops_completed = 0
        self._txn_participant = None
        self.queue_depth = 0


class _StubSim:
    def __init__(self) -> None:
        self.now = 0.0


class _StubService:
    def __init__(self) -> None:
        self.sim = _StubSim()
        self.view = MembershipView.initial([0])
        self.applied = ()
        self.accept = True
        self.requested = []

    def set_timer(self, delay, callback, *args):  # timers unused in unit tests
        pass

    def _applied_migrations(self):
        return self.applied

    def request_migration(self, migration):
        if self.accept:
            self.requested.append(migration)
        return self.accept


class _StubCluster:
    def __init__(self, shards: int, nodes: int = 1) -> None:
        self.shards = shards
        self.shard_replicas = {
            (node, shard): _StubReplica()
            for node in range(nodes)
            for shard in range(shards)
        }
        self.nodes = {node: _StubReplica() for node in range(nodes)}


def _scaler(shards: int = 4, **overrides) -> Autoscaler:
    defaults = dict(
        interval=1e-3,
        window_ticks=1,
        imbalance_threshold=1.5,
        min_ops_per_window=10,
        cooldown=0.0,
        max_rounds=8,
        seed=0,
    )
    defaults.update(overrides)
    return Autoscaler(_StubCluster(shards), _StubService(), AutoscaleConfig(**defaults))


def _feed(scaler: Autoscaler, *per_shard_ops):
    """Advance cumulative counters by one tick's worth and sample."""
    for shard, delta in enumerate(per_shard_ops):
        for (node, s), replica in scaler.shard_replicas.items():
            if s == shard:
                replica.ops_completed += delta
                break
    scaler.service.sim.now += scaler.config.interval
    scaler._history.append(scaler._sample())
    scaler._maybe_reshard()


def test_no_decision_before_window_fills():
    scaler = _scaler(window_ticks=2)
    _feed(scaler, 1000, 0, 0, 0)
    _feed(scaler, 1000, 0, 0, 0)
    assert scaler.rounds_started == 0 and not scaler.service.requested


def test_hot_shard_triggers_plan_to_coldest():
    scaler = _scaler()
    _feed(scaler, 0, 0, 0, 0)
    _feed(scaler, 900, 40, 10, 50)
    assert scaler.rounds_started == 1
    migration = scaler.service.requested[0]
    # Hottest splits toward the least-loaded other shard (shard 2 here).
    assert migration.source == 0 and migration.target == 2
    assert (migration.stride, migration.offset) == (2, 0)


def test_balanced_load_and_idle_window_are_skipped():
    scaler = _scaler()
    _feed(scaler, 0, 0, 0, 0)
    _feed(scaler, 100, 100, 100, 100)  # balanced: peak == mean
    _feed(scaler, 1, 0, 0, 0)  # hot in shape but under min_ops_per_window
    assert scaler.rounds_started == 0
    assert scaler.skipped_balanced == 2


def test_busy_service_and_cooldown_are_counted():
    scaler = _scaler(cooldown=10.0)
    scaler.service.accept = False
    _feed(scaler, 0, 0, 0, 0)
    _feed(scaler, 900, 0, 0, 0)
    assert scaler.skipped_busy == 1 and scaler.rounds_started == 0
    # A started round arms the cooldown; the next hot window waits it out.
    scaler.service.accept = True
    _feed(scaler, 900, 0, 0, 0)
    assert scaler.rounds_started == 1
    _feed(scaler, 900, 0, 0, 0)
    assert scaler.skipped_cooldown == 1 and scaler.rounds_started == 1


def test_drained_source_is_unplannable():
    scaler = _scaler(shards=2)
    # Shard 0's whole range already moved away: nothing left to split.
    scaler.service.applied = (ShardMigration(source=0, target=1, stride=1, offset=0),)
    _feed(scaler, 0, 0)
    _feed(scaler, 900, 10)
    assert scaler.skipped_unplannable == 1 and scaler.rounds_started == 0


def test_tie_break_is_seeded_and_reproducible():
    def hot_pick(seed: int) -> int:
        scaler = _scaler(seed=seed)
        _feed(scaler, 0, 0, 0, 0)
        _feed(scaler, 600, 600, 0, 0)  # shards 0 and 1 exactly tied
        assert scaler.rounds_started == 1
        return scaler.service.requested[0].source

    first = hot_pick(7)
    assert first in (0, 1)
    assert hot_pick(7) == first  # same seed, same pick
    picks = {hot_pick(seed) for seed in range(12)}
    assert picks == {0, 1}  # the tie-break is not a structural bias


def test_max_rounds_caps_policy():
    scaler = _scaler(max_rounds=1)
    _feed(scaler, 0, 0, 0, 0)
    _feed(scaler, 900, 0, 0, 0)
    _feed(scaler, 900, 0, 0, 0)
    assert scaler.rounds_started == 1 and len(scaler.service.requested) == 1


# --------------------------------------------------------------- end to end
def autoscale_cluster(seed: int = 3, max_rounds: int = 6) -> Cluster:
    membership = MembershipConfig(
        lease_duration=0.040,
        renewal_interval=0.010,
        detection=FailureDetectorConfig(ping_interval=0.010, detection_timeout=0.030),
        autoscale=AutoscaleConfig(
            interval=5e-3,
            window_ticks=2,
            imbalance_threshold=1.5,
            min_ops_per_window=50,
            cooldown=8e-3,
            max_rounds=max_rounds,
            seed=seed,
        ),
    )
    return Cluster(
        ClusterConfig(
            protocol="hermes",
            num_replicas=3,
            shards=4,
            seed=seed,
            run_membership_service=True,
            membership=membership,
        )
    )


def run_autoscale_scenario(
    seed: int = 3,
    until: float = 0.200,
    crash: FailureEvent = None,
    epoch_sample_interval: float = 2e-3,
):
    cluster = autoscale_cluster(seed=seed)
    distribution = ShiftingHotspotKeys(64, 4, hot_shard=0, exponent=0.8)
    workload = WorkloadMix(distribution=distribution, write_ratio=0.2, seed=seed)
    cluster.preload(workload.initial_dataset())
    history = History()
    clients = [
        ClosedLoopClient(
            i, cluster, workload, max_ops=10**9, think_time=20e-6,
            replica_id=i % 3, history=history,
        )
        for i in range(6)
    ]
    for client in clients:
        client.start()
    if crash is not None:
        FailureInjector(cluster, [crash]).arm()

    # Sample every node's router epoch on a fixed simulated-time grid: the
    # property under test is that no router ever steps backwards, however
    # many rounds chain (or get cancelled and retried) in between.
    epoch_series = {node_id: [] for node_id in cluster.nodes}
    def sample_epochs() -> None:
        for node_id, host in cluster.nodes.items():
            epoch_series[node_id].append(host.router.epoch)
    ticks = int(until / epoch_sample_interval)
    for tick in range(1, ticks + 1):
        cluster.sim.schedule_at(tick * epoch_sample_interval, sample_epochs)

    cluster.run(until=until)
    return cluster, workload, history, epoch_series


def _assert_epochs_monotonic(epoch_series):
    for node_id, series in epoch_series.items():
        assert all(a <= b for a, b in zip(series, series[1:])), (
            f"node {node_id} router epoch went backwards: {series}"
        )


def test_autoscale_balances_hot_shard_end_to_end():
    cluster, workload, history, epoch_series = run_autoscale_scenario()
    scaler = cluster.autoscaler
    records = cluster.migration_records
    assert scaler is not None
    # The crowd hammers shard 0 only; the policy must notice and split it
    # at least once, and chained rounds stay serialized (records carry
    # strictly increasing flip times).
    assert scaler.rounds_started >= 2
    assert len(records) >= 2
    flips = [record.flip_time for record in records]
    assert flips == sorted(flips)
    assert records[0].migration.source == 0
    _assert_epochs_monotonic(epoch_series)

    # Every surviving router converged to the service's applied chain.
    chain = cluster.membership_service._applied_migrations()
    assert len(chain) == len(records)
    for host in cluster.nodes.values():
        for key in range(64):
            assert host.router.shard_of(key) == routed_shard(key, 4, chain)

    report = check_all(
        history,
        initial_values=workload.initial_dataset(),
        migration_records=records,
    )
    assert report.ok, report.violations


def test_autoscale_epoch_monotonic_across_cancelled_then_retried_round():
    # Crash a node before the first decision tick (~15 ms): the freeze
    # handshake misses its ack, the migration watchdog cancels the round,
    # the detector then evicts the node, and a later tick re-plans against
    # the shrunken view — the chain still ends with 3+ completed rounds.
    cluster, workload, history, epoch_series = run_autoscale_scenario(
        until=0.260, crash=FailureEvent.crash(0.012, 2)
    )
    service = cluster.membership_service
    records = cluster.migration_records
    assert service.migrations_cancelled >= 1
    assert len(records) >= 3
    assert 2 not in service.view.members
    # The retried round re-planned the same hot shard the cancelled round
    # targeted (the imbalance persisted).
    assert records[0].migration.source == 0
    flips = [record.flip_time for record in records]
    assert flips == sorted(flips)
    _assert_epochs_monotonic(epoch_series)

    chain = service._applied_migrations()
    assert len(chain) == len(records)
    for node_id, host in cluster.nodes.items():
        if node_id == 2:
            continue  # crashed node's router is frozen in the past
        for key in range(64):
            assert host.router.shard_of(key) == routed_shard(key, 4, chain)

    report = check_all(
        history,
        initial_values=workload.initial_dataset(),
        migration_records=records,
    )
    assert report.ok, report.violations


def test_home_nodes_follow_the_view_after_an_eviction():
    # The cold-shard tie-break reads the inbox of each shard's home node:
    # the node holding the shard's placed role, which an eviction moves.
    # Home nodes taken from every node ever built would keep pointing at
    # the evicted node's dead inbox.
    membership = MembershipConfig(
        lease_duration=400e-6,
        renewal_interval=100e-6,
        detection=FailureDetectorConfig(ping_interval=100e-6, detection_timeout=400e-6),
        autoscale=AutoscaleConfig(interval=1e-3),
    )
    cluster = Cluster(
        ClusterConfig(
            protocol="hermes",
            num_replicas=4,
            shards=4,
            seed=3,
            run_membership_service=True,
            membership=membership,
        )
    )
    FailureInjector(cluster, [FailureEvent.crash(2e-3, 1)]).arm()
    cluster.run(until=6e-3)
    assert sorted(cluster.membership_service.view.members) == [0, 2, 3]
    homes = [cluster.autoscaler.home_node(shard) for shard in range(4)]
    assert homes == [cluster.replica(0, shard).role_ring()[0] for shard in range(4)]
    assert 1 not in homes
