"""Unit tests for the Wings RPC layer: batching, flow control, transports."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.rpc.batching import BatchBuffer, BatchingConfig, WingsPacket, PER_MESSAGE_HEADER_BYTES
from repro.rpc.flow_control import CreditConfig, CreditManager, ExplicitCreditUpdate
from repro.rpc.wings import DirectTransport, WingsTransport
from repro.sim.engine import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.node import NodeProcess


class SinkNode(NodeProcess):
    """A node collecting application messages (Wings packets unpacked)."""

    def __init__(self, node_id, sim, network, transport_factory=None):
        super().__init__(node_id, sim, network)
        self.transport = None
        self.received = []

    def on_message(self, src, message):
        assert self.transport is not None
        if isinstance(self.transport, WingsTransport):
            unpacked = self.transport.unpack(src, message)
        else:
            unpacked = [(message, 0)]
        for inner, size in unpacked:
            self.received.append((src, inner, size))

    def on_local_work(self, work):  # pragma: no cover - unused
        pass


def build_nodes(sim, use_wings=True, credits=None):
    network = Network(sim, NetworkConfig(jitter=0.0))
    a = SinkNode(0, sim, network)
    b = SinkNode(1, sim, network)
    for node in (a, b):
        if use_wings:
            node.transport = WingsTransport(node, peers=[0, 1], credits=credits)
        else:
            node.transport = DirectTransport(node)
    return a, b


# ---------------------------------------------------------------- batching
def test_batching_config_validation():
    with pytest.raises(ConfigurationError):
        BatchingConfig(max_batch_messages=0).validate()
    with pytest.raises(ConfigurationError):
        BatchingConfig(max_delay=-1.0).validate()


def test_batch_buffer_first_message_flag():
    buffer = BatchBuffer(BatchingConfig())
    assert buffer.add(1, "a", 10) is True
    assert buffer.add(1, "b", 10) is False
    assert buffer.add(2, "c", 10) is True


def test_batch_buffer_full_and_flush():
    buffer = BatchBuffer(BatchingConfig(max_batch_messages=2))
    buffer.add(1, "a", 10)
    assert not buffer.is_full(1)
    buffer.add(1, "b", 10)
    assert buffer.is_full(1)
    packet = buffer.flush(1)
    assert packet.count == 2
    assert buffer.pending_for(1) == 0


def test_batch_buffer_flush_all_skips_empty():
    buffer = BatchBuffer(BatchingConfig())
    buffer.add(1, "a", 10)
    packets = buffer.flush_all()
    assert set(packets) == {1}


def test_packet_size_includes_subheaders():
    packet = WingsPacket(messages=[("a", 10), ("b", 20)])
    assert packet.size_bytes == 30 + 2 * PER_MESSAGE_HEADER_BYTES


def test_average_batch_size_statistic():
    buffer = BatchBuffer(BatchingConfig())
    buffer.add(1, "a", 1)
    buffer.add(1, "b", 1)
    buffer.flush(1)
    buffer.add(1, "c", 1)
    buffer.flush(1)
    assert buffer.average_batch_size == pytest.approx(1.5)


# ------------------------------------------------------------ flow control
def test_credit_config_validation():
    with pytest.raises(ConfigurationError):
        CreditConfig(initial_credits=0).validate()


def test_credits_consumed_and_replenished():
    manager = CreditManager([1], CreditConfig(initial_credits=2))
    assert manager.consume(1)
    assert manager.consume(1)
    assert not manager.consume(1)
    assert manager.stalls == 1
    manager.replenish(1, 1)
    assert manager.consume(1)


def test_credits_capped_at_initial():
    manager = CreditManager([1], CreditConfig(initial_credits=3))
    manager.replenish(1, 100)
    assert manager.available(1) == 3


def test_receiver_owes_explicit_update_at_threshold():
    manager = CreditManager([1], CreditConfig(initial_credits=8, explicit_update_threshold=3))
    assert manager.on_message_received(1) == 0
    assert manager.on_message_received(1) == 0
    assert manager.on_message_received(1) == 3
    assert manager.owed_to(1) == 0


def test_implicit_credit_reduces_debt():
    manager = CreditManager([1], CreditConfig(explicit_update_threshold=4))
    manager.on_message_received(1)
    manager.on_message_received(1)
    manager.on_implicit_credit(1, 2)
    assert manager.owed_to(1) == 0


def test_explicit_credit_update_has_no_payload():
    assert ExplicitCreditUpdate(credits=5).size_bytes == 0


# --------------------------------------------------------------- transports
def test_direct_transport_delivers_one_packet_per_message(sim):
    a, b = build_nodes(sim, use_wings=False)
    a.transport.send(1, "m1", 8)
    a.transport.send(1, "m2", 8)
    sim.run()
    assert [m for _, m, _ in b.received] == ["m1", "m2"]


def test_wings_transport_batches_messages_to_same_destination(sim):
    a, b = build_nodes(sim)
    for i in range(5):
        a.transport.send(1, f"m{i}", 8)
    sim.run()
    assert [m for _, m, _ in b.received] == [f"m{i}" for i in range(5)]
    # All five messages travelled in a single network packet.
    assert a.transport.packets_sent == 1


def test_wings_transport_flush_forces_emission(sim):
    a, b = build_nodes(sim)
    a.transport.send(1, "m", 8)
    a.transport.flush()
    sim.run(until=1e-7)
    # Flushed immediately: the packet is already on the wire before max_delay.
    assert a.transport.batcher.pending_for(1) == 0


def test_wings_transport_emits_when_batch_full(sim):
    a, b = build_nodes(sim)
    limit = a.transport.batcher.config.max_batch_messages
    for i in range(limit):
        a.transport.send(1, i, 4)
    assert a.transport.packets_sent == 1


def test_wings_broadcast_skips_self(sim):
    a, b = build_nodes(sim)
    a.transport.broadcast([0, 1], "b", 4)
    a.transport.flush()
    sim.run()
    assert len(b.received) == 1
    assert len(a.received) == 0


def test_wings_flow_control_stalls_and_recovers(sim):
    credits = CreditConfig(initial_credits=2, explicit_update_threshold=2)
    a, b = build_nodes(sim, credits=credits)
    for i in range(6):
        a.transport.send(1, f"m{i}", 4)
    a.transport.flush()
    sim.run()
    # Credit updates flow back and eventually release the stalled messages.
    assert len(b.received) == 6


def test_wings_unpack_passthrough_for_foreign_messages(sim):
    a, b = build_nodes(sim)
    # A message sent outside the Wings transport (e.g. the RM service).
    b.network.send(0, 1, "bare", 4)
    sim.run()
    assert ("bare" in [m for _, m, _ in b.received])


def test_crashed_node_transport_sends_nothing(sim):
    a, b = build_nodes(sim)
    a.crash()
    a.transport.send(1, "m", 4)
    a.transport.flush()
    sim.run()
    assert b.received == []
