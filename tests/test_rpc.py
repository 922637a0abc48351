"""Unit tests for the Wings RPC layer: packets and the batching transport."""

from __future__ import annotations

from repro.rpc import MAX_BATCH_MESSAGES, PER_MESSAGE_HEADER_BYTES, WingsPacket, WingsTransport
from repro.sim.network import Network, NetworkConfig
from repro.sim.node import NodeProcess


class SinkNode(NodeProcess):
    """A node collecting application messages, opening Wings packets."""

    def __init__(self, node_id, sim, network):
        super().__init__(node_id, sim, network)
        self.transport = self
        self.received = []

    def flush(self):
        pass

    def on_message(self, src, message):
        messages = [message] if self.transport is self else self.transport.unpack(message)
        self.received.extend((src, inner) for inner in messages)

    def on_local_work(self, work):  # pragma: no cover - unused
        pass


def build_nodes(sim, use_wings=True):
    network = Network(sim, NetworkConfig(jitter=0.0))
    a = SinkNode(0, sim, network)
    b = SinkNode(1, sim, network)
    if use_wings:
        for node in (a, b):
            node.transport = WingsTransport(node)
    return a, b


def test_packet_size_includes_subheaders():
    packet = WingsPacket(messages=[("a", 10), ("b", 20)])
    assert packet.size_bytes == 30 + 2 * PER_MESSAGE_HEADER_BYTES


def test_replica_without_wings_sends_one_packet_per_message(sim):
    a, b = build_nodes(sim, use_wings=False)
    a.transport.send(1, "m1", 8)
    a.transport.send(1, "m2", 8)
    sim.run()
    assert [m for _, m in b.received] == ["m1", "m2"]
    assert a.network.stats.messages_sent == 2


def test_wings_transport_batches_messages_to_same_destination(sim):
    a, b = build_nodes(sim)
    for i in range(5):
        a.transport.send(1, f"m{i}", 8)
    sim.run()
    assert [m for _, m in b.received] == [f"m{i}" for i in range(5)]
    # All five messages travelled in a single network packet.
    assert a.network.stats.messages_sent == 1


def test_wings_transport_flush_forces_emission(sim):
    a, b = build_nodes(sim)
    a.transport.send(1, "m", 8)
    a.transport.flush()
    # Flushed at once: the packet is on the wire before the aggregation
    # window closes.
    assert a.network.stats.messages_sent == 1
    sim.run()
    assert [m for _, m in b.received] == ["m"]
    assert a.network.stats.messages_sent == 1


def test_wings_transport_emits_when_batch_full(sim):
    a, b = build_nodes(sim)
    for i in range(MAX_BATCH_MESSAGES):
        a.transport.send(1, i, 4)
    assert a.network.stats.messages_sent == 1


def test_wings_broadcast_skips_self(sim):
    a, b = build_nodes(sim)
    a.transport.broadcast([0, 1], "b", 4)
    a.transport.flush()
    sim.run()
    assert len(b.received) == 1
    assert len(a.received) == 0


def test_wings_unpack_passthrough_for_foreign_messages(sim):
    a, b = build_nodes(sim)
    # A message sent outside the batcher (membership and 2PC traffic).
    b.network.send(0, 1, "bare", 4)
    sim.run()
    assert [m for _, m in b.received] == ["bare"]


def test_crashed_node_transport_sends_nothing(sim):
    a, b = build_nodes(sim)
    a.crash()
    a.transport.send(1, "m", 4)
    a.transport.flush()
    sim.run()
    assert b.received == []
