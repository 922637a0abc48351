"""Hermes protocol: concurrent writes, conflict-free resolution and O2/O3."""

from __future__ import annotations

import pytest

from repro.core.config import HermesConfig
from repro.core.state import KeyState
from repro.types import Operation, OpStatus
from tests.conftest import make_cluster, submit_and_run


def start_write(cluster, node, key, value, done):
    cluster.replica(node).submit(Operation.write(key, value), lambda o, s, v: done.append((node, s)))


def test_concurrent_writes_same_key_both_commit(hermes_cluster):
    """Writes never abort: concurrent writers are ordered by timestamp (§3.1)."""
    hermes_cluster.preload({"k": 0})
    done = []
    hermes_cluster.sim.schedule(0.0, start_write, hermes_cluster, 0, "k", "from-0", done)
    hermes_cluster.sim.schedule(0.0, start_write, hermes_cluster, 2, "k", "from-2", done)
    hermes_cluster.run(until=0.01)
    assert len(done) == 2
    assert all(s is OpStatus.OK for _, s in done)


def test_concurrent_writes_converge_to_highest_cid(hermes_cluster):
    """Same version, different coordinators: the higher cid wins everywhere."""
    hermes_cluster.preload({"k": 0})
    done = []
    hermes_cluster.sim.schedule(0.0, start_write, hermes_cluster, 0, "k", "from-0", done)
    hermes_cluster.sim.schedule(0.0, start_write, hermes_cluster, 2, "k", "from-2", done)
    hermes_cluster.run(until=0.01)
    values = {r.store.get("k") for r in hermes_cluster.all_replicas()}
    assert values == {"from-2"}
    states = {r.key_state("k") for r in hermes_cluster.all_replicas()}
    assert states == {KeyState.VALID}


def test_concurrent_writers_all_replicas_reach_same_timestamp(five_node_hermes):
    five_node_hermes.preload({"k": 0})
    done = []
    for node in five_node_hermes.node_ids:
        five_node_hermes.sim.schedule(0.0, start_write, five_node_hermes, node, "k", f"v{node}", done)
    five_node_hermes.run(until=0.02)
    assert len(done) == 5
    timestamps = {five_node_hermes.replica(n).key_timestamp("k") for n in five_node_hermes.node_ids}
    assert len(timestamps) == 1


def test_superseded_coordinator_transitions_through_trans(hermes_cluster):
    """Figure 4 corner case: the lower-timestamped coordinator ends up Invalid
    at commit time and only becomes Valid when the winner's VAL arrives."""
    hermes_cluster.preload({"A": 0})
    done = []
    hermes_cluster.sim.schedule(0.0, start_write, hermes_cluster, 0, "A", 1, done)
    hermes_cluster.sim.schedule(0.0, start_write, hermes_cluster, 2, "A", 3, done)
    hermes_cluster.run(until=0.01)
    # Both writes committed; node 0's write is linearized before node 2's.
    assert {s for _, s in done} == {OpStatus.OK}
    assert hermes_cluster.replica(0).store.get("A") == 3
    # Optimization O1 saved node 0's VAL broadcast.
    assert hermes_cluster.total_stat("vals_skipped") >= 1


def test_interleaved_read_during_conflict_returns_final_value(hermes_cluster):
    hermes_cluster.preload({"A": 0})
    done = []
    reads = []
    hermes_cluster.sim.schedule(0.0, start_write, hermes_cluster, 0, "A", 1, done)
    hermes_cluster.sim.schedule(0.0, start_write, hermes_cluster, 2, "A", 3, done)
    hermes_cluster.sim.schedule(
        3e-6,
        lambda: hermes_cluster.replica(1).submit(
            Operation.read("A"), lambda o, s, v: reads.append(v)
        ),
    )
    hermes_cluster.run(until=0.01)
    assert reads == [3]


def test_many_interleaved_writers_converge(five_node_hermes):
    five_node_hermes.preload({"k": 0})
    done = []
    for round_index in range(4):
        for node in five_node_hermes.node_ids:
            five_node_hermes.sim.schedule(
                round_index * 1e-6, start_write, five_node_hermes, node, "k", (round_index, node), done
            )
    five_node_hermes.run(until=0.05)
    assert len(done) == 20
    values = {repr(r.store.get("k")) for r in five_node_hermes.all_replicas()}
    assert len(values) == 1


def test_virtual_node_ids_improve_fairness():
    """With O2, tie-break wins spread across nodes instead of favouring the
    highest node id."""
    def winners(virtual_ids):
        cluster = make_cluster(
            "hermes", 3, hermes=HermesConfig(virtual_ids_per_node=virtual_ids), seed=5
        )
        cluster.preload({"k": 0})
        win_counts = {n: 0 for n in cluster.node_ids}
        for _ in range(30):
            done = []
            for node in cluster.node_ids:
                cluster.sim.schedule(0.0, start_write, cluster, node, "k", node, done)
            cluster.run_until(lambda: len(done) == 3, check_interval=1e-5, max_time=1.0)
            cluster.run(until=cluster.sim.now + 5e-5)
            win_counts[cluster.replica(0).store.get("k")] += 1
        return win_counts

    without_o2 = winners(1)
    with_o2 = winners(8)
    # Without O2 the highest node id wins every race; with O2 other nodes win some.
    assert without_o2[2] == 30
    assert with_o2[2] < 30
    assert sum(1 for n, c in with_o2.items() if c > 0) >= 2


def test_o3_broadcast_acks_unblock_reads_before_val():
    """With O3, a follower that saw every ACK serves reads without the VAL."""
    cluster = make_cluster("hermes", 3, hermes=HermesConfig(broadcast_acks=True))
    cluster.preload({"k": "old"})
    reads = []
    cluster.sim.schedule(
        0.0,
        lambda: cluster.replica(0).submit(Operation.write("k", "new"), lambda o, s, v: None),
    )
    cluster.sim.schedule(
        3e-6,
        lambda: cluster.replica(1).submit(Operation.read("k"), lambda o, s, v: reads.append(v)),
    )
    cluster.run(until=0.01)
    assert reads == ["new"]
    assert cluster.total_stat("vals_skipped") == 0


def test_o3_generates_more_acks_but_same_result():
    plain = make_cluster("hermes", 3, seed=3)
    o3 = make_cluster("hermes", 3, hermes=HermesConfig(broadcast_acks=True), seed=3)
    for cluster in (plain, o3):
        cluster.preload({"k": 0})
        submit_and_run(cluster, 0, Operation.write("k", 1))
        cluster.run(until=cluster.sim.now + 0.001)
        assert cluster.replica(2).store.get("k") == 1
    assert o3.network.stats.messages_sent > plain.network.stats.messages_sent
