"""Unit tests for the network model."""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.sim.engine import Simulator
from repro.sim.network import DEFAULT_HEADER_BYTES, Network, NetworkConfig, NetworkStats, Partition


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


def test_callback_sink_runs_same_instant_arrivals_in_send_order(sim):
    net = build(sim)
    order = []
    for node in (1, 2):
        net.register(node, lambda src, msg, size, node=node: order.append((node, msg, sim.now)))
    for dst, msg in ((2, "a"), (1, "b"), (2, "c")):
        net.send(0, dst, msg)
    sim.run()
    arrival = NetworkConfig().base_latency + DEFAULT_HEADER_BYTES * NetworkConfig().per_byte_latency
    assert order == [(2, "a", arrival), (1, "b", arrival), (2, "c", arrival)]
    assert sim.events_executed == 3


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


def test_config_validation_rejects_bad_probabilities():
    with pytest.raises(ConfigurationError):
        NetworkConfig(loss_rate=1.5).validate()
    with pytest.raises(ConfigurationError):
        NetworkConfig(jitter=2.0).validate()
    with pytest.raises(ConfigurationError):
        NetworkConfig(base_latency=-1.0).validate()


def test_network_config_is_frozen():
    config = NetworkConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.loss_rate = 0.5


def test_reconfigure_builds_a_new_config_and_applies_it(sim):
    shared = NetworkConfig(jitter=0.0)
    net = Network(sim, shared, rng=random.Random(1))
    inbox = register_sink(net, 1)
    net.reconfigure(loss_rate=1.0)
    net.send(0, 1, "lost")
    with pytest.raises(ConfigurationError):
        net.reconfigure(loss_rate=2.0)
    assert net.config.loss_rate == 1.0
    net.reconfigure(loss_rate=0.0)
    net.send(0, 1, "kept")
    sim.run()
    assert [message for _, message, _ in inbox] == ["kept"]
    assert net.stats.messages_dropped_loss == 1
    assert shared.loss_rate == 0.0


def test_the_faulty_flag_follows_every_fault_state_change(sim):
    """A healthy fabric skips every fault test; each fault knob turns that
    off while it is set, and clearing it turns it back on."""
    net = build(sim)

    def faulty():
        return net._timing[-1]

    assert not faulty()
    net.set_partition(Partition.split([0], [1]))
    assert faulty()
    net.set_partition(None)
    assert not faulty()
    net.degrade_link(0, 1, latency_factor=2.0)
    assert faulty()
    net.heal_link(0, 1)
    assert not faulty()
    net.degrade_link(0, 1, loss_rate=0.5, symmetric=False)
    net.degrade_link(0, 1)
    assert not faulty()
    for field in ("loss_rate", "duplicate_rate", "reorder_rate"):
        net.reconfigure(**{field: 0.1})
        assert faulty()
        net.reconfigure(**{field: 0.0})
        assert not faulty()


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


class _ArrivalRecorder:
    """A destination that records every copy the network pushes to it."""

    def __init__(self, node_id, log):
        self.node_id = node_id
        self.log = log

    def _push_arrival(self, arrival, seq, src, message, total_bytes):
        self.log.append((self.node_id, arrival.hex(), seq))


def test_send_multi_draw_order_is_pinned():
    """Golden values for one fan-out through every fault the fabric draws.

    Per destination the network draws loss, link loss, jitter and reorder
    for the message, then the fabric duplicate (its own jitter and
    reorder), then the link duplicate (its delay before its latency). The
    clock is off zero so the summation order of a late duplicate's
    arrival, ``now + (latency + delay)``, shows in the bits.
    """
    sim = Simulator()
    config = NetworkConfig(loss_rate=0.2, duplicate_rate=0.5, reorder_rate=0.5)
    net = Network(sim, config, rng=random.Random(32))
    log = []
    for node in range(5):
        net.register_process(_ArrivalRecorder(node, log))
    net.degrade_link(0, 2, latency_factor=1.5, loss_rate=0.25, duplicate_rate=0.9, duplicate_delay=30e-6)
    net.degrade_link(0, 4, latency_factor=2.0, duplicate_rate=1.0, duplicate_delay=10e-6, symmetric=False)
    sim.run(until=1.234567e-3)
    net.send_multi(0, [1, 2, 3, 4], "m", 16)
    assert log == [
        (2, "0x1.4a26aef3bf84ap-10", 0),
        (2, "0x1.446ce46fc811ap-10", 1),
        (2, "0x1.4beb5794a3decp-10", 2),
        (3, "0x1.47f3d4aa12876p-10", 3),
        (4, "0x1.45a308e928300p-10", 4),
        (4, "0x1.4675d4d89fdb8p-10", 5),
        (4, "0x1.466e806013ea0p-10", 6),
    ]
    assert net.stats == NetworkStats(
        messages_sent=4,
        messages_dropped_loss=1,
        messages_duplicated=4,
        bytes_sent=4 * (16 + DEFAULT_HEADER_BYTES),
    )
    # Pins how many draws the fan-out consumed.
    assert net._next_random().hex() == "0x1.3d1b5cdd3d322p-2"
