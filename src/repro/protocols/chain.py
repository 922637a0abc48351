"""Plain Chain Replication (van Renesse & Schneider, OSDI'04).

The predecessor of CRAQ (paper §2.4): nodes form a chain, writes enter at the
head and commit at the tail, and — unlike CRAQ — *all* linearizable reads
must be served by the tail. The protocol is included as an additional
baseline and as the substrate the paper's related-work discussion builds on;
it makes the value of CRAQ's apportioned queries (and of Hermes' local reads)
measurable. :class:`~repro.protocols.craq.CraqReplica` is this chain plus
apportioned reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.kvs.store import ValueRecord
from repro.membership.view import MembershipView
from repro.protocols.base import (
    HEADER_BYTES,
    ClientCallback,
    OrderedReplica,
    ProtocolFeatures,
    register_protocol,
)
from repro.types import Key, NodeId, Operation, Value

#: Whether replicas apply a write-down only when its version exceeds the
#: local one. The guard is what keeps replicas convergent when the fabric
#: reorders write-downs (see :meth:`ChainReplicationReplica._install`);
#: it must stay True in any real run. The fuzzing harness's self-test
#: (tests/test_fuzz.py) monkeypatches it to False to demonstrate that a
#: deliberately reintroduced safety bug is caught by the checker oracles
#: and shrunk to a minimal fault schedule.
WRITE_DOWN_VERSION_GUARD = True


# Plain slotted dataclasses compared by identity, not frozen: see the note in
# repro.core.messages (a frozen __init__ costs ~4x; the sanitizer and lint
# M-rules guard mutation instead).
@dataclass(eq=False, slots=True)
class CrWriteDown:
    """A versioned write propagating down the chain (head towards tail).

    ``seq`` is the origin's number for the update (see
    :class:`~repro.protocols.base.ForwardedWrite`); it rides in the header.
    """

    key: Key
    version: int
    value: Value
    origin: NodeId
    op_id: int
    seq: int
    size_bytes: int = HEADER_BYTES


@dataclass(eq=False, slots=True)
class CrWriteReply:
    """Completion notification from the tail to the origin node."""

    op_id: int
    value: Value
    size_bytes: int = HEADER_BYTES


@dataclass(eq=False, slots=True)
class CrReadRequest:
    """A read forwarded to the tail (CR serves linearizable reads there only)."""

    key: Key
    origin: NodeId
    op_id: int
    size_bytes: int = HEADER_BYTES


@dataclass(eq=False, slots=True)
class CrReadReply:
    """The tail's answer to a forwarded read."""

    op_id: int
    value: Value
    size_bytes: int = HEADER_BYTES


@dataclass(slots=True)
class ChainRecord(ValueRecord):
    """A key's record at a chain node: the value and its chain version.

    The head numbers each write to the key with the next version; nodes
    below it install a write-down only if it is newer.
    """

    version: int = 0


class ChainReplicationReplica(OrderedReplica):
    """A node of a plain Chain Replication chain; the head orders writes."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # Chain order follows the shard's role ring: ascending node id for
        # shard 0 (the unsharded layout), rotated per shard so head and tail
        # duties spread across nodes in partitioned deployments.
        self._chain: List[NodeId] = list(self.role_ring())
        self.writes_committed = 0

    # ------------------------------------------------------------- features
    @classmethod
    def features(cls) -> ProtocolFeatures:
        """Plain CR's feature descriptor (tail-only reads)."""
        return ProtocolFeatures(
            name="CR",
            consistency="linearizable",
            local_reads=False,
            leases="one per RM",
            inter_key_concurrent_writes=True,
            decentralized_writes=False,
            write_latency_rtt="O(n)",
        )

    # ------------------------------------------------------- chain topology
    @property
    def chain(self) -> List[NodeId]:
        """Current chain order (the shard's role ring over the live view)."""
        return list(self._chain)

    @property
    def head(self) -> NodeId:
        """Head of the chain (orders every write)."""
        return self._chain[0]

    orderer = head

    @property
    def tail(self) -> NodeId:
        """Tail of the chain (the commit point)."""
        return self._chain[-1]

    @property
    def is_head(self) -> bool:
        """Whether this node is the head."""
        return self.node_id == self.head

    @property
    def is_tail(self) -> bool:
        """Whether this node is the tail."""
        return self.node_id == self.tail

    def successor(self) -> Optional[NodeId]:
        """Next node down the chain, if any."""
        index = self._chain.index(self.node_id)
        return self._chain[index + 1] if index + 1 < len(self._chain) else None

    def on_view_change(self, view: MembershipView) -> None:
        """Rebuild the chain over the surviving members."""
        self._chain = list(self.role_ring(view))

    # ------------------------------------------------------------ client ops
    def _read(self, op: Operation, callback: ClientCallback) -> None:
        """Serve a read at the tail; other nodes forward it there."""
        if self.is_tail:
            super()._read(op, callback)
            return
        self.reads_served_remotely += 1
        self._awaiting[op.op_id] = (op, callback)
        request = CrReadRequest(key=op.key, origin=self.node_id, op_id=op.op_id)
        self.transport.send(self.tail, request, request.size_bytes)

    def _on_read_request(self, src: NodeId, message: CrReadRequest) -> None:
        value = self.store.get(message.key, None)
        reply = CrReadReply(op_id=message.op_id, value=value)
        self.transport.send(
            message.origin, reply, reply.size_bytes + self.value_size_of(value)
        )

    def _on_reply(self, src: NodeId, message: Any) -> None:
        self._complete_awaited(message.op_id, message.value)

    # ---------------------------------------------------------- chain writes
    def _accept(self, key: Key, value: Value, origin: NodeId, op_id: int, seq: int) -> None:
        self._forward_down(key, self._next_version(key, value), value, origin, op_id, seq)

    def _forward_down(
        self, key: Key, version: int, value: Value, origin: NodeId, op_id: int, seq: int
    ) -> None:
        successor = self.successor()
        if successor is None:
            # Single-node chain: the head is also the tail.
            self._tail_commit(key, version, value, origin, op_id)
            return
        message = CrWriteDown(
            key=key, version=version, value=value, origin=origin, op_id=op_id, seq=seq
        )
        self.transport.send(
            successor, message, message.size_bytes + self.update_size_bytes(value)
        )

    def _on_write_down(self, src: NodeId, message: CrWriteDown) -> None:
        self._record(message.origin, message.seq)
        self._install(message.key, message.version, message.value)
        if self.is_tail:
            self._tail_commit(message.key, message.version, message.value, message.origin, message.op_id)
        else:
            self._forward_down(
                message.key,
                message.version,
                message.value,
                message.origin,
                message.op_id,
                message.seq,
            )

    def _tail_commit(self, key: Key, version: int, value: Value, origin: NodeId, op_id: int) -> None:
        self.writes_committed += 1
        if origin == self.node_id:
            self._complete_awaited(op_id, value)
        else:
            reply = CrWriteReply(op_id=op_id, value=value)
            self.transport.send(origin, reply, reply.size_bytes)

    # -------------------------------------------------------- per-key state
    def _next_version(self, key: Key, value: Value) -> int:
        """At the head: give ``value`` the key's next version and install it."""
        record = self.store.record(key)
        record.version += 1
        record.value = value
        return record.version

    def _install(self, key: Key, version: int, value: Value) -> None:
        """Apply a write-down at a node below the head.

        Real chain replication runs over FIFO links; the simulated fabric
        can reorder messages (latency jitter), so apply a write-down only if
        it is newer than the local version — otherwise replicas could
        permanently diverge when two writes to one key swap on a link. Stale
        write-downs are still forwarded/committed so their origin receives a
        reply.
        """
        record = self.store.record(key)
        if version > record.version or not WRITE_DOWN_VERSION_GUARD:
            record.version = version
            record.value = value

    RECORD = ChainRecord
    HANDLERS = {
        **OrderedReplica.HANDLERS,
        CrWriteDown: _on_write_down,
        CrWriteReply: _on_reply,
        CrReadRequest: _on_read_request,
        CrReadReply: _on_reply,
    }


register_protocol("cr", ChainReplicationReplica)
