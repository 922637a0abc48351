"""Wings: the RDMA-style RPC layer (paper §4.2).

Wings is the communication library underneath HermesKV. This module models
its opportunistic batching over the simulated network: messages headed to
the same receiver leave as one :class:`WingsPacket`, so the sender pays one
send-side CPU charge per packet instead of one per message — exactly the
benefit the paper ascribes to Wings. The batching never stalls to form a
batch: a destination's batch leaves once it holds
:data:`MAX_BATCH_MESSAGES` messages, when its handler finishes (the replica
flushes), or at the latest :data:`MAX_DELAY` after its first message, which
models the "readily available messages" window.

A replica without Wings is its own transport (``replica.transport is
replica``): its ``send``/``broadcast`` post one network packet per message
and its ``flush`` does nothing. A replica with Wings holds a
:class:`WingsTransport`; it opens each arriving packet with
:meth:`WingsTransport.unpack`, routes every message it carries through its
one dispatch table (see :class:`repro.protocols.base.ReplicaNode`), then
flushes what the handlers batched. Membership and 2PC traffic bypass the
batcher through the replica's own ``send``.

Wings' credit-based flow control is not modelled: it protects receive
buffers, and the simulated inboxes are unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Tuple

from repro.sim.node import NodeProcess
from repro.types import NodeId

#: A destination's batch leaves as soon as it holds this many messages.
MAX_BATCH_MESSAGES = 16

#: Aggregation window (seconds): a batch leaves at the latest this long after
#: its first message was buffered.
MAX_DELAY = 2e-6

#: Per-message overhead inside a batch (Wings application-level sub-header).
PER_MESSAGE_HEADER_BYTES = 4


@dataclass(slots=True)
class WingsPacket:
    """A network packet carrying a batch of ``(message, payload_size)`` pairs."""

    messages: List[Tuple[Any, int]]

    @property
    def size_bytes(self) -> int:
        """Total payload size of the packet (messages + sub-headers)."""
        return sum(size + PER_MESSAGE_HEADER_BYTES for _, size in self.messages)


class WingsTransport:
    """Per-destination opportunistic batching in front of one replica.

    Args:
        node: The owning replica: its ``send`` charges the CPU and posts the
            packet (a shard guest's ``send`` wraps it in the shard envelope).
    """

    def __init__(self, node: NodeProcess) -> None:
        self.node = node
        self.sim = node.sim
        self._pending: Dict[NodeId, List[Tuple[Any, int]]] = {}

    def send(self, dst: NodeId, message: Any, size_bytes: int = 0) -> None:
        """Buffer one message for ``dst`` (dropped while the node is crashed)."""
        if self.node.crashed:
            return
        batch = self._pending.get(dst)
        if batch is None:
            self._pending[dst] = [(message, size_bytes)]
            self.sim.schedule(MAX_DELAY, self._emit, dst)
            return
        batch.append((message, size_bytes))
        if len(batch) >= MAX_BATCH_MESSAGES:
            self._emit(dst)

    def broadcast(self, destinations: Iterable[NodeId], message: Any, size_bytes: int = 0) -> None:
        """Buffer one message for every destination except the node itself."""
        for dst in destinations:
            if dst != self.node.node_id:
                self.send(dst, message, size_bytes)

    def flush(self) -> None:
        """Put every buffered batch on the wire, in first-buffered order."""
        pending, self._pending = self._pending, {}
        for dst, batch in pending.items():
            self._transmit(dst, batch)

    @staticmethod
    def unpack(message: Any) -> List[Any]:
        """The application messages an arriving network message carries.

        A message that is not a packet was sent unbatched (membership and
        2PC traffic) and carries only itself.
        """
        if type(message) is WingsPacket:
            return [inner for inner, _size in message.messages]
        return [message]

    def _emit(self, dst: NodeId) -> None:
        batch = self._pending.pop(dst, None)
        if batch:
            self._transmit(dst, batch)

    def _transmit(self, dst: NodeId, batch: List[Tuple[Any, int]]) -> None:
        # One send-side CPU charge per packet, however many messages it carries.
        packet = WingsPacket(batch)
        self.node.send(dst, packet, packet.size_bytes)
