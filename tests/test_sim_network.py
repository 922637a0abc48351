"""Unit tests for the network model."""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.sim.engine import Simulator
from repro.sim.network import DEFAULT_HEADER_BYTES, Network, NetworkConfig, Partition


def build(sim, **kwargs):
    config = NetworkConfig(jitter=0.0, **kwargs)
    return Network(sim, config, rng=random.Random(1))


def register_sink(network, node_id):
    received = []
    network.register(node_id, lambda src, msg, size: received.append((src, msg, size)))
    return received


def test_basic_delivery(sim):
    net = build(sim)
    inbox = register_sink(net, 1)
    register_sink(net, 0)
    net.send(0, 1, "hello", size_bytes=10)
    sim.run()
    assert len(inbox) == 1
    assert inbox[0][0] == 0
    assert inbox[0][1] == "hello"


def test_delivery_latency_includes_base_and_bytes(sim):
    net = build(sim, base_latency=1e-6, per_byte_latency=1e-9)
    times = []
    net.register(1, lambda src, msg, size: times.append(sim.now))
    net.send(0, 1, "m", size_bytes=100)
    sim.run()
    expected = 1e-6 + (100 + DEFAULT_HEADER_BYTES) * 1e-9
    assert times[0] == pytest.approx(expected)


def test_unknown_destination_raises(sim):
    net = build(sim)
    with pytest.raises(SimulationError):
        net.send(0, 42, "x")


def test_loss_drops_messages(sim):
    net = build(sim, loss_rate=1.0)
    inbox = register_sink(net, 1)
    net.send(0, 1, "x")
    sim.run()
    assert inbox == []
    assert net.stats.messages_dropped_loss == 1


def test_duplicate_delivers_twice(sim):
    net = build(sim, duplicate_rate=1.0)
    inbox = register_sink(net, 1)
    net.send(0, 1, "x")
    sim.run()
    assert len(inbox) == 2
    assert net.stats.messages_duplicated == 1


def test_reordering_possible_with_extra_latency(sim):
    net = build(sim, reorder_rate=1.0, reorder_extra_latency=50e-6)
    inbox = register_sink(net, 1)
    net.send(0, 1, "first")
    net.send(0, 1, "second")
    sim.run()
    assert {m for _, m, _ in inbox} == {"first", "second"}


def test_crashed_destination_drops(sim):
    net = build(sim)
    inbox = register_sink(net, 1)
    net.crash(1)
    net.send(0, 1, "x")
    sim.run()
    assert inbox == []
    assert net.stats.messages_dropped_crashed == 1


def test_crashed_source_emits_nothing(sim):
    net = build(sim)
    inbox = register_sink(net, 1)
    net.crash(0)
    net.send(0, 1, "x")
    sim.run()
    assert inbox == []


def test_recover_restores_delivery(sim):
    net = build(sim)
    inbox = register_sink(net, 1)
    net.crash(1)
    net.recover(1)
    net.send(0, 1, "x")
    sim.run()
    assert len(inbox) == 1


def test_message_crossing_partition_dropped(sim):
    net = build(sim)
    inbox = register_sink(net, 1)
    register_sink(net, 2)
    net.set_partition(Partition.split({0, 2}, {1}))
    net.send(0, 1, "x")
    sim.run()
    assert inbox == []
    assert net.stats.messages_dropped_partition == 1


def test_message_within_partition_group_delivered(sim):
    net = build(sim)
    inbox = register_sink(net, 2)
    register_sink(net, 1)
    net.set_partition(Partition.split({0, 2}, {1}))
    net.send(0, 2, "x")
    sim.run()
    assert len(inbox) == 1


def test_heal_partition(sim):
    net = build(sim)
    inbox = register_sink(net, 1)
    net.set_partition(Partition.split({0}, {1}))
    net.set_partition(None)
    net.send(0, 1, "x")
    sim.run()
    assert len(inbox) == 1


def test_partition_groups_must_not_overlap():
    with pytest.raises(ConfigurationError):
        Partition.split({0, 1}, {1, 2})


def test_partition_unlisted_node_is_isolated():
    partition = Partition.split({0, 1})
    assert not partition.allows(0, 5)
    assert not partition.allows(5, 0)
    assert partition.allows(5, 5)


def test_broadcast_excludes_sender(sim):
    net = build(sim)
    inboxes = {n: register_sink(net, n) for n in range(3)}
    net.broadcast(0, [0, 1, 2], "b")
    sim.run()
    assert inboxes[0] == []
    assert len(inboxes[1]) == 1
    assert len(inboxes[2]) == 1


def test_stats_counts(sim):
    net = build(sim)
    register_sink(net, 1)
    for _ in range(5):
        net.send(0, 1, "x", size_bytes=10)
    sim.run()
    assert net.stats.messages_sent == 5
    assert net.stats.messages_delivered == 5
    assert net.stats.bytes_sent == 5 * (10 + DEFAULT_HEADER_BYTES)


def test_unregister_removes_node(sim):
    net = build(sim)
    register_sink(net, 1)
    net.unregister(1)
    assert 1 not in net.node_ids


def test_config_validation_rejects_bad_probabilities():
    with pytest.raises(ConfigurationError):
        NetworkConfig(loss_rate=1.5).validate()
    with pytest.raises(ConfigurationError):
        NetworkConfig(jitter=2.0).validate()
    with pytest.raises(ConfigurationError):
        NetworkConfig(base_latency=-1.0).validate()


def test_jitter_varies_latency(sim):
    config = NetworkConfig(jitter=0.5, base_latency=10e-6)
    net = Network(sim, config, rng=random.Random(3))
    times = []
    net.register(1, lambda src, msg, size: times.append(sim.now))
    previous = 0.0
    for _ in range(20):
        net.send(0, 1, "x")
    sim.run()
    deltas = {round(t - previous, 12) for t in times}
    assert len(deltas) > 1
