"""Hermes protocol under faults: message loss, replays, crashes, reconfiguration."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.failures import FailureEvent, FailureInjector
from repro.core.config import HermesConfig
from repro.core.state import KeyState
from repro.membership.detector import FailureDetectorConfig
from repro.membership.service import MembershipConfig
from repro.sim.network import NetworkConfig
from repro.types import Operation, OpStatus
from tests.conftest import make_cluster, submit_and_run


def lossy_cluster(loss_rate=0.0, duplicate_rate=0.0, reorder_rate=0.0, num_replicas=3, seed=1, mlt=100e-6):
    config = ClusterConfig(
        protocol="hermes",
        num_replicas=num_replicas,
        seed=seed,
        network=NetworkConfig(loss_rate=loss_rate, duplicate_rate=duplicate_rate, reorder_rate=reorder_rate),
        hermes=HermesConfig(mlt=mlt),
    )
    return Cluster(config)


def test_write_completes_despite_heavy_message_loss():
    cluster = lossy_cluster(loss_rate=0.3, seed=11)
    cluster.preload({"k": 0})
    status, _ = submit_and_run(cluster, 0, Operation.write("k", 1), timeout=0.5)
    assert status is OpStatus.OK
    assert cluster.total_stat("inv_retransmissions") >= 0
    cluster.run(until=cluster.sim.now + 0.01)
    assert all(r.store.get("k") == 1 for r in cluster.all_replicas())


def test_duplicated_messages_are_harmless():
    cluster = lossy_cluster(duplicate_rate=0.5, seed=7)
    cluster.preload({"k": 0})
    for i in range(5):
        status, _ = submit_and_run(cluster, i % 3, Operation.write("k", i), timeout=0.5)
        assert status is OpStatus.OK
    cluster.run(until=cluster.sim.now + 0.01)
    values = {r.store.get("k") for r in cluster.all_replicas()}
    assert values == {4}


def test_reordered_messages_preserve_convergence():
    cluster = lossy_cluster(reorder_rate=0.5, seed=9)
    cluster.preload({"k": 0})
    done = []
    for i in range(6):
        cluster.replica(i % 3).submit(Operation.write("k", i), lambda o, s, v: done.append(s))
    cluster.run_until(lambda: len(done) == 6, check_interval=1e-4, max_time=1.0)
    cluster.run(until=cluster.sim.now + 0.01)
    values = {r.store.get("k") for r in cluster.all_replicas()}
    assert len(values) == 1


def test_lost_val_triggers_write_replay_on_read():
    """A follower whose VAL was lost replays the write when a read stalls (§3.4)."""
    cluster = lossy_cluster(mlt=50e-6)
    cluster.preload({"k": "old"})
    # Write normally, then drop every message right before the VAL broadcast
    # by raising the loss rate at the commit instant.
    done = []
    cluster.replica(0).submit(Operation.write("k", "new"), lambda o, s, v: done.append(s))
    cluster.run_until(lambda: bool(done), check_interval=1e-6, max_time=0.01)
    cluster.run(until=cluster.sim.now + 0.001)
    # Simulate the VAL having been lost: force the follower back to Invalid.
    follower = cluster.replica(1)
    record = follower.store.try_get_record("k")
    if record.state is KeyState.VALID:
        record.transition(KeyState.INVALID)
    reads = []
    follower.submit(Operation.read("k"), lambda o, s, v: reads.append(v))
    cluster.run(until=cluster.sim.now + 0.01)
    assert reads == ["new"]
    assert follower.replays_started >= 1


def test_replay_uses_original_timestamp():
    cluster = lossy_cluster(mlt=50e-6)
    cluster.preload({"k": "old"})
    done = []
    cluster.replica(2).submit(Operation.write("k", "new"), lambda o, s, v: done.append(s))
    cluster.run_until(lambda: bool(done), check_interval=1e-6, max_time=0.01)
    cluster.run(until=cluster.sim.now + 0.001)
    ts_before = cluster.replica(1).key_timestamp("k")
    follower = cluster.replica(1)
    record = follower.store.try_get_record("k")
    if record.state is KeyState.VALID:
        record.transition(KeyState.INVALID)
    reads = []
    follower.submit(Operation.read("k"), lambda o, s, v: reads.append(v))
    cluster.run(until=cluster.sim.now + 0.01)
    assert cluster.replica(1).key_timestamp("k") == ts_before
    assert cluster.replica(0).key_timestamp("k") == ts_before


def membership_cluster(num_replicas=5, detection_timeout=20e-3):
    config = ClusterConfig(
        protocol="hermes",
        num_replicas=num_replicas,
        run_membership_service=True,
        membership=MembershipConfig(
            lease_duration=10e-3,
            renewal_interval=2e-3,
            detection=FailureDetectorConfig(ping_interval=2e-3, detection_timeout=detection_timeout),
        ),
    )
    return Cluster(config)


def test_crash_blocks_writes_until_reconfiguration():
    cluster = membership_cluster()
    cluster.preload({"k": 0})
    cluster.crash(4)
    done = []
    cluster.replica(0).submit(Operation.write("k", 1), lambda o, s, v: done.append(s))
    # The write cannot commit while the crashed node is still in the view.
    cluster.run(until=5e-3)
    assert done == []
    # After detection + lease expiry + reconfiguration it commits.
    cluster.run(until=0.2)
    assert done == [OpStatus.OK]
    assert cluster.membership_service.reconfigurations == 1
    assert cluster.membership_service.view.members == frozenset({0, 1, 2, 3})


def test_reads_of_valid_keys_keep_working_during_failure():
    cluster = membership_cluster()
    cluster.preload({"k": 0})
    cluster.crash(4)
    reads = []
    cluster.replica(1).submit(Operation.read("k"), lambda o, s, v: reads.append(v))
    cluster.run(until=5e-3)
    assert reads == [0]


def test_epoch_mismatch_messages_are_dropped():
    cluster = membership_cluster(num_replicas=3)
    cluster.preload({"k": 0})
    cluster.crash(2)
    done = []
    cluster.replica(0).submit(Operation.write("k", 1), lambda o, s, v: done.append(s))
    cluster.run(until=0.3)
    assert done == [OpStatus.OK]
    # Survivors ended up in epoch 2.
    assert cluster.replica(0).view.epoch_id == 2
    assert cluster.replica(1).view.epoch_id == 2


def test_failure_injector_crash_event():
    cluster = make_cluster("hermes", 3)
    cluster.preload({"k": 0})
    injector = FailureInjector(cluster, [FailureEvent.crash(1e-3, 2)])
    injector.arm()
    cluster.run(until=2e-3)
    assert cluster.replica(2).crashed
    assert injector.applied[0].kind.value == "crash"


def test_failure_injector_partition_and_heal():
    cluster = make_cluster("hermes", 3)
    injector = FailureInjector(
        cluster,
        [FailureEvent.partition(1e-3, [0, 1], [2]), FailureEvent.heal(2e-3)],
    )
    injector.arm()
    cluster.run(until=1.5e-3)
    assert cluster.network.partition is not None
    cluster.run(until=2.5e-3)
    assert cluster.network.partition is None


def test_failure_injector_message_loss_episode():
    cluster = make_cluster("hermes", 3)
    injector = FailureInjector(
        cluster,
        [FailureEvent.message_loss(1e-3, 0.5), FailureEvent.message_loss(2e-3, 0.0)],
    )
    injector.arm()
    cluster.run(until=1.5e-3)
    assert cluster.network.config.loss_rate == 0.5
    cluster.run(until=2.5e-3)
    assert cluster.network.config.loss_rate == 0.0


def test_a_message_loss_episode_leaves_the_cluster_config_alone():
    config = ClusterConfig(protocol="hermes", num_replicas=3)
    first = Cluster(config)
    FailureInjector(first, [FailureEvent.message_loss(1e-6, 0.5)]).arm()
    first.run(until=1e-5)
    assert first.network.config.loss_rate == 0.5
    second = Cluster(config)
    assert config.network.loss_rate == 0.0
    assert second.network.config.loss_rate == 0.0


def test_minority_partition_cannot_commit_writes():
    """Writes in a minority partition stall (no ACK from the majority side)."""
    cluster = make_cluster("hermes", 5)
    cluster.preload({"k": 0})
    cluster.network.set_partition(
        __import__("repro.sim.network", fromlist=["Partition"]).Partition.split({0, 1}, {2, 3, 4})
    )
    done = []
    cluster.replica(0).submit(Operation.write("k", 1), lambda o, s, v: done.append(s))
    cluster.run(until=0.02)
    assert done == []
