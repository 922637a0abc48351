"""Transport facades used by protocol replicas.

Protocol code sends messages through a :class:`Transport`, which has two
implementations:

* :class:`DirectTransport` — one network packet per message. This is the
  default for benchmarks because it minimizes simulator event counts while
  preserving protocol-relative behaviour.
* :class:`WingsTransport` — the Wings model: opportunistic per-destination
  batching plus credit-based flow control. Used by the Wings-focused tests
  and the batching ablation benchmark.

Both route their actual sends through the owning
:class:`~repro.sim.node.NodeProcess` so that posting a message charges the
sender's CPU; batching therefore genuinely reduces send overhead, which is
exactly the benefit the paper ascribes to Wings (§4.2).

A receiving replica routes every application message through its one
exact-class dispatch table (see :class:`repro.protocols.base.ReplicaNode`).
Under the direct transport each network message is an application message;
under Wings the replica first opens the packet with
:meth:`WingsTransport.unpack` and routes each message it carries, then
flushes what the handlers batched.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Tuple

from repro.rpc.batching import BatchBuffer, BatchingConfig, WingsPacket
from repro.rpc.flow_control import CreditConfig, CreditManager, ExplicitCreditUpdate
from repro.sim.node import NodeProcess
from repro.types import NodeId


class Transport:
    """Interface protocol replicas use to talk to the network."""

    def send(self, dst: NodeId, message: Any, size_bytes: int = 0) -> None:
        """Send one application message to ``dst``."""
        raise NotImplementedError

    def broadcast(self, destinations: Iterable[NodeId], message: Any, size_bytes: int = 0) -> None:
        """Send one application message to every destination except self."""
        raise NotImplementedError

    def flush(self) -> None:
        """Force any buffered messages onto the wire (no-op if unbuffered)."""


class DirectTransport(Transport):
    """Unbatched transport: each message is its own network packet."""

    def __init__(self, node: NodeProcess) -> None:
        self.node = node
        # Bind the node's methods directly: protocol sends go through the
        # transport once per message, and the pass-through wrapper frame is
        # measurable on the benchmark hot path.
        self.send = node.send
        self.broadcast = node.broadcast


class WingsTransport(Transport):
    """Wings-style transport: opportunistic batching + credit flow control.

    Args:
        node: Owning replica process (provides CPU accounting, the simulator
            and the network).
        peers: All peer node ids this transport will ever talk to.
        batching: Batching configuration.
        credits: Flow-control configuration; ``None`` disables flow control.
    """

    def __init__(
        self,
        node: NodeProcess,
        peers: Iterable[NodeId],
        batching: Optional[BatchingConfig] = None,
        credits: Optional[CreditConfig] = None,
    ) -> None:
        self.node = node
        self.sim = node.sim
        self.network = node.network
        self.peers = list(peers)
        self.batcher = BatchBuffer(batching or BatchingConfig())
        self.credit_manager = (
            CreditManager(self.peers, credits) if credits is not None else None
        )
        #: Messages that could not be sent due to missing credits, per peer.
        self._credit_stalled: List[Tuple[NodeId, Any, int]] = []
        self.packets_sent = 0

    # ----------------------------------------------------------------- send
    def send(self, dst: NodeId, message: Any, size_bytes: int = 0) -> None:
        if self.node.crashed:
            return
        if self.credit_manager is not None and not self.credit_manager.consume(dst):
            self._credit_stalled.append((dst, message, size_bytes))
            return
        first = self.batcher.add(dst, message, size_bytes)
        if self.batcher.is_full(dst):
            self._emit(dst)
        elif first:
            self.sim.schedule(self.batcher.config.max_delay, self._emit, dst)

    def broadcast(self, destinations: Iterable[NodeId], message: Any, size_bytes: int = 0) -> None:
        for dst in destinations:
            if dst == self.node.node_id:
                continue
            self.send(dst, message, size_bytes)

    def flush(self) -> None:
        for dst, packet in self.batcher.flush_all().items():
            self._transmit(dst, packet)

    # -------------------------------------------------------------- receive
    def unpack(self, src: NodeId, message: Any) -> List[Tuple[Any, int]]:
        """Turn an incoming network message into ``(message, size_bytes)`` pairs.

        Credit updates are consumed here and yield an empty list.
        """
        if isinstance(message, ExplicitCreditUpdate):
            if self.credit_manager is not None:
                self.credit_manager.replenish(src, message.credits)
                self._retry_stalled()
            return []
        if isinstance(message, WingsPacket):
            if self.credit_manager is not None:
                credits_due = 0
                for _ in message.messages:
                    credits_due += self.credit_manager.on_message_received(src)
                if credits_due:
                    update = ExplicitCreditUpdate(credits=credits_due)
                    self.node.send(src, update, update.size_bytes)
            return list(message.messages)
        # Unbatched message from a peer not using Wings (e.g. the RM service).
        return [(message, getattr(message, "size_bytes", 0))]

    # ------------------------------------------------------------- internals
    def _emit(self, dst: NodeId) -> None:
        packet = self.batcher.flush(dst)
        if packet.count:
            self._transmit(dst, packet)

    def _transmit(self, dst: NodeId, packet: WingsPacket) -> None:
        if self.node.crashed:
            return
        self.packets_sent += 1
        # One send-side CPU charge per packet regardless of how many
        # application messages it carries — the batching benefit.
        self.node.send(dst, packet, packet.size_bytes)

    def _retry_stalled(self) -> None:
        stalled, self._credit_stalled = self._credit_stalled, []
        for dst, message, size_bytes in stalled:
            self.send(dst, message, size_bytes)
