"""A Derecho-style lock-step totally ordered multicast baseline (paper §6.5).

Derecho is the state-of-the-art virtually synchronous (membership-based)
Paxos variant the paper compares against in Figure 8. Its writes are totally
ordered and delivered in *lock-step*: a batch (round) of updates is only
delivered once every replica has confirmed receipt of the whole round, and
the next round cannot start before the previous one has been delivered.
Total order also means writes to independent keys cannot proceed
concurrently.

The model here captures exactly those two properties — sequenced rounds with
an all-replica barrier and no inter-key concurrency — which are what cap
Derecho's small-object throughput relative to Hermes in Figure 8. (Derecho's
RDMA dataplane optimizations such as RDMC trees matter for very large
objects, outside the evaluated range.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError
from repro.protocols.base import (
    HEADER_BYTES,
    OrderedReplica,
    ProtocolFeatures,
    register_protocol,
)
from repro.types import Key, NodeId, Value


# --------------------------------------------------------------------------
# Wire messages
# --------------------------------------------------------------------------
# Plain slotted dataclasses compared by identity, not frozen: see the note in
# repro.core.messages (a frozen __init__ costs ~4x; the sanitizer and lint
# M-rules guard mutation instead).
@dataclass(eq=False, slots=True)
class OrderedRound:
    """A sequenced round (ordered batch) of updates multicast to all replicas:
    ``(key, value, origin, op_id, seq)`` each."""

    round_id: int
    updates: Tuple[Tuple[Key, Value, NodeId, int, int], ...]
    size_bytes: int = HEADER_BYTES


@dataclass(eq=False, slots=True)
class RoundReceived:
    """A replica's confirmation that it received the whole round."""

    round_id: int
    size_bytes: int = HEADER_BYTES


@dataclass(eq=False, slots=True)
class RoundDeliver:
    """The sequencer's instruction to deliver (apply) a stable round."""

    round_id: int
    size_bytes: int = HEADER_BYTES


@dataclass
class DerechoConfig:
    """Tunables of the lock-step total-order model.

    Attributes:
        max_round_updates: Maximum number of updates carried by one round.
            The default of 1 models the small-message path the paper
            evaluates (lock-step delivery with no effective intra-round
            batching); larger windows can be configured to study how much of
            the gap to Hermes is recovered by batching.
    """

    max_round_updates: int = 1

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` for invalid settings."""
        if self.max_round_updates < 1:
            raise ConfigurationError("max_round_updates must be >= 1")


class DerechoReplica(OrderedReplica):
    """A replica of the Derecho-style lock-step total order; the sequencer orders updates."""

    def __init__(self, *args: Any, derecho_config: Optional[DerechoConfig] = None, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.derecho_config = derecho_config or DerechoConfig()
        self.derecho_config.validate()
        # Sequencer state.
        self._next_round_id = 1
        self._queued_updates: List[Tuple[Key, Value, NodeId, int, int]] = []
        self._inflight_round: Optional[OrderedRound] = None
        self._round_confirmations: Set[NodeId] = set()
        # Replica state.
        self._received_rounds: Dict[int, OrderedRound] = {}
        self._delivered_round = 0
        self.rounds_delivered = 0
        self.writes_committed = 0

    # ------------------------------------------------------------- features
    @classmethod
    def features(cls) -> ProtocolFeatures:
        """Derecho's row of the paper's Table 2."""
        return ProtocolFeatures(
            name="Derecho",
            consistency="sequential",
            local_reads=True,
            leases="none",
            inter_key_concurrent_writes=False,
            decentralized_writes=True,
            write_latency_rtt="1 (lock-step)",
        )

    # ------------------------------------------------------------- topology
    @property
    def sequencer(self) -> NodeId:
        """The node sequencing rounds (first node of the shard's role ring;
        the lowest view member for unsharded groups, rotated per shard)."""
        return self.role_ring()[0]

    orderer = sequencer

    # --------------------------------------------------------- sequencer side
    def _accept(self, key: Key, value: Value, origin: NodeId, op_id: int, seq: int) -> None:
        """Queue the update for the next round."""
        self._queued_updates.append((key, value, origin, op_id, seq))
        self._maybe_start_round()

    def _maybe_start_round(self) -> None:
        """Start the next round if none is in flight (lock-step rule)."""
        if self._inflight_round is not None or not self._queued_updates:
            return
        batch = tuple(self._queued_updates[: self.derecho_config.max_round_updates])
        del self._queued_updates[: len(batch)]
        round_id = self._next_round_id
        self._next_round_id += 1
        # Sequencing the round is pinned to a single ordering thread (total
        # order prevents inter-key concurrency), one charge per update.
        self.charge_cpu(weight=float(self.service_model.worker_threads) * len(batch))
        payload_bytes = sum(self.update_size_bytes(value) for _, value, *_ in batch)
        ordered = OrderedRound(round_id=round_id, updates=batch)
        self._inflight_round = ordered
        self._round_confirmations = {self.node_id}
        self._received_rounds[round_id] = ordered
        self.transport.broadcast(self.peers(), ordered, ordered.size_bytes + payload_bytes)
        self._maybe_deliver_round()

    def _on_round_received(self, src: NodeId, message: RoundReceived) -> None:
        if self._inflight_round is None or message.round_id != self._inflight_round.round_id:
            return
        self._round_confirmations.add(src)
        self._maybe_deliver_round()

    def _maybe_deliver_round(self) -> None:
        """Deliver once *all* live replicas confirmed (virtual synchrony)."""
        if self._inflight_round is None:
            return
        if not set(self.view.members).issubset(self._round_confirmations):
            return
        round_id = self._inflight_round.round_id
        deliver = RoundDeliver(round_id=round_id)
        self.transport.broadcast(self.peers(), deliver, deliver.size_bytes)
        self._inflight_round = None
        self._on_round_deliver(round_id)
        # Lock-step: only after delivery may the next round start.
        self._maybe_start_round()

    # ----------------------------------------------------------- replica side
    def _on_round(self, src: NodeId, ordered: OrderedRound) -> None:
        self._received_rounds[ordered.round_id] = ordered
        confirm = RoundReceived(round_id=ordered.round_id)
        self.transport.send(self.sequencer, confirm, confirm.size_bytes)

    def _on_deliver_message(self, src: NodeId, message: RoundDeliver) -> None:
        self._on_round_deliver(message.round_id)

    def _on_round_deliver(self, round_id: int) -> None:
        ordered = self._received_rounds.pop(round_id, None)
        if ordered is None or round_id <= self._delivered_round:
            return
        self._delivered_round = round_id
        self.rounds_delivered += 1
        for key, value, origin, op_id, seq in ordered.updates:
            self._record(origin, seq)
            self.store.put(key, value)
            self.writes_committed += 1
            if origin == self.node_id:
                self._complete_awaited(op_id, value)

    HANDLERS = {
        **OrderedReplica.HANDLERS,
        OrderedRound: _on_round,
        RoundReceived: _on_round_received,
        RoundDeliver: _on_deliver_message,
    }


register_protocol("derecho", DerechoReplica)
