"""CRAQ: Chain Replication with Apportioned Queries (Terrace & Freedman).

CRAQ is the strongest baseline in the paper (§2.5, §5.1.2): nodes form a
chain; writes enter at the head and travel down the chain, committing at the
tail, after which acknowledgements travel back up. Reads are served locally
by any node *unless* the node holds a dirty (not yet acknowledged) version of
the key, in which case it must ask the tail which version has committed.

The two structural weaknesses the paper identifies are reproduced by
construction:

* writes traverse the entire chain sequentially, so write latency grows with
  the replication degree (O(n) in Table 2);
* dirty reads are redirected to the tail, which becomes a hotspot under
  skew or high write ratios (Figures 5b, 6c, 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.membership.view import MembershipView
from repro.protocols.base import (
    ClientCallback,
    ProtocolFeatures,
    ReplicaNode,
    register_protocol,
)
from repro.types import Key, NodeId, Operation, OpStatus, OpType, Value

#: Small constant wire overhead of CRAQ control fields (version, ids).
CRAQ_HEADER_BYTES = 16


# --------------------------------------------------------------------------
# Wire messages
# --------------------------------------------------------------------------
# Plain slotted dataclasses compared by identity, not frozen: see the note in
# repro.core.messages (a frozen __init__ costs ~4x; the sanitizer and lint
# M-rules guard mutation instead).
@dataclass(eq=False, slots=True)
class WriteRequest:
    """A write forwarded from the receiving node to the head of the chain."""

    key: Key
    value: Value
    origin: NodeId
    op_id: int
    size_bytes: int = CRAQ_HEADER_BYTES


@dataclass(eq=False, slots=True)
class WriteDown:
    """A versioned write propagating down the chain (head towards tail)."""

    key: Key
    version: int
    value: Value
    origin: NodeId
    op_id: int
    size_bytes: int = CRAQ_HEADER_BYTES


@dataclass(eq=False, slots=True)
class AckUp:
    """A commit acknowledgement propagating up the chain (tail towards head)."""

    key: Key
    version: int
    size_bytes: int = CRAQ_HEADER_BYTES


@dataclass(eq=False, slots=True)
class WriteReply:
    """Completion notification sent by the tail to the write's origin node."""

    key: Key
    version: int
    op_id: int
    value: Value
    size_bytes: int = CRAQ_HEADER_BYTES


@dataclass(eq=False, slots=True)
class VersionQuery:
    """A dirty read asking the tail which version of a key has committed."""

    key: Key
    origin: NodeId
    op_id: int
    size_bytes: int = CRAQ_HEADER_BYTES


@dataclass(eq=False, slots=True)
class VersionReply:
    """The tail's answer to a :class:`VersionQuery`."""

    key: Key
    committed_version: int
    value: Value
    op_id: int
    size_bytes: int = CRAQ_HEADER_BYTES


# --------------------------------------------------------------------------
# Per-key metadata
# --------------------------------------------------------------------------
@dataclass(slots=True)
class CraqKeyMeta:
    """CRAQ's per-key bookkeeping at one chain node.

    Attributes:
        versions: Values of all versions newer than (and including) the
            locally known committed version.
        latest_version: Highest version this node has applied (dirty or not).
        committed_version: Highest version this node knows to be committed.
    """

    versions: Dict[int, Value] = field(default_factory=dict)
    latest_version: int = 0
    committed_version: int = 0

    @property
    def dirty(self) -> bool:
        """Whether the node holds uncommitted (dirty) versions of the key."""
        return self.latest_version > self.committed_version

    def apply(self, version: int, value: Value) -> None:
        """Record a (possibly dirty) version received from upstream."""
        self.versions[version] = value
        if version > self.latest_version:
            self.latest_version = version

    def commit(self, version: int) -> None:
        """Mark ``version`` committed and prune obsolete versions."""
        if version > self.committed_version:
            self.committed_version = version
        for stale in [v for v in self.versions if v < self.committed_version]:
            del self.versions[stale]

    def committed_value(self) -> Value:
        """Value of the highest committed version known locally."""
        return self.versions.get(self.committed_version)


class CraqReplica(ReplicaNode):
    """A CRAQ chain node (head, intermediate or tail depending on position)."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # Chain order follows the shard's role ring (ascending node id for
        # shard 0, rotated per shard) so each shard's head/tail hotspots
        # land on different nodes — see ReplicaNode.role_ring.
        self._chain: List[NodeId] = list(self.role_ring())
        #: Writes this node originated, waiting for their WriteReply.
        self._pending_client_ops: Dict[int, Tuple[Operation, ClientCallback]] = {}
        #: Dirty reads waiting for the tail's version reply.
        self._pending_reads: Dict[int, Tuple[Operation, ClientCallback]] = {}
        self.tail_queries = 0
        self.writes_committed = 0

    # ------------------------------------------------------------- features
    @classmethod
    def features(cls) -> ProtocolFeatures:
        """CRAQ's row of the paper's Table 2."""
        return ProtocolFeatures(
            name="CRAQ",
            consistency="linearizable",
            local_reads=True,
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
        """Head of the chain (receives all writes)."""
        return self._chain[0]

    @property
    def tail(self) -> NodeId:
        """Tail of the chain (commit point and dirty-read oracle)."""
        return self._chain[-1]

    @property
    def is_head(self) -> bool:
        """Whether this node is the chain head."""
        return self.node_id == self.head

    @property
    def is_tail(self) -> bool:
        """Whether this node is the chain tail."""
        return self.node_id == self.tail

    def successor(self) -> Optional[NodeId]:
        """The next node down the chain, or ``None`` at the tail."""
        index = self._chain.index(self.node_id)
        if index + 1 < len(self._chain):
            return self._chain[index + 1]
        return None

    def predecessor(self) -> Optional[NodeId]:
        """The next node up the chain, or ``None`` at the head."""
        index = self._chain.index(self.node_id)
        if index > 0:
            return self._chain[index - 1]
        return None

    def on_view_change(self, view: MembershipView) -> None:
        """Rebuild the chain over the surviving members."""
        self._chain = list(self.role_ring(view))

    # ------------------------------------------------------------ client ops
    def handle_client_op(self, op: Operation, callback: ClientCallback) -> None:
        """Serve reads locally (or via the tail); route updates to the head."""
        if op.op_type is OpType.READ:
            self._handle_read(op, callback)
        else:
            # CRAQ has no RMW fast path; updates (including RMWs) are writes
            # serialized through the chain.
            self._handle_write(op, callback)

    def _handle_read(self, op: Operation, callback: ClientCallback) -> None:
        meta = self._meta(op.key)
        if not meta.dirty or self.is_tail:
            self.reads_served_locally += 1
            value = meta.committed_value()
            self.complete(op, callback, OpStatus.OK, value)
            return
        # Dirty read: ask the tail which version committed (paper §2.5).
        self.reads_served_remotely += 1
        self.tail_queries += 1
        self._pending_reads[op.op_id] = (op, callback)
        query = VersionQuery(key=op.key, origin=self.node_id, op_id=op.op_id)
        self.transport.send(self.tail, query, query.size_bytes)

    def _handle_write(self, op: Operation, callback: ClientCallback) -> None:
        self._pending_client_ops[op.op_id] = (op, callback)
        if self.is_head:
            self._head_accept_write(op.key, op.value, self.node_id, op.op_id)
            return
        request = WriteRequest(key=op.key, value=op.value, origin=self.node_id, op_id=op.op_id)
        self.transport.send(self.head, request, request.size_bytes + self.update_size_bytes(op.value))

    # -------------------------------------------------------------- head side
    def _on_write_request(self, src: NodeId, message: WriteRequest) -> None:
        self._head_accept_write(message.key, message.value, message.origin, message.op_id)

    def _head_accept_write(self, key: Key, value: Value, origin: NodeId, op_id: int) -> None:
        meta = self._meta(key)
        version = meta.latest_version + 1
        meta.apply(version, value)
        self._forward_down(key, version, value, origin, op_id)

    def _forward_down(self, key: Key, version: int, value: Value, origin: NodeId, op_id: int) -> None:
        successor = self.successor()
        if successor is None:
            # Single-node chain: the head is also the tail.
            self._tail_commit(key, version, value, origin, op_id)
            return
        message = WriteDown(key=key, version=version, value=value, origin=origin, op_id=op_id)
        self.transport.send(
            successor, message, message.size_bytes + self.update_size_bytes(value)
        )

    # -------------------------------------------------------- chain traversal
    def _on_write_down(self, src: NodeId, message: WriteDown) -> None:
        meta = self._meta(message.key)
        meta.apply(message.version, message.value)
        if self.is_tail:
            self._tail_commit(
                message.key, message.version, message.value, message.origin, message.op_id
            )
            return
        self._forward_down(
            message.key, message.version, message.value, message.origin, message.op_id
        )

    def _tail_commit(self, key: Key, version: int, value: Value, origin: NodeId, op_id: int) -> None:
        meta = self._meta(key)
        meta.apply(version, value)
        meta.commit(version)
        self.writes_committed += 1
        # Notify the origin so it can answer its client, and start the
        # acknowledgement wave back up the chain.
        reply = WriteReply(key=key, version=version, op_id=op_id, value=value)
        if origin == self.node_id:
            self._complete_local_write(op_id, value)
        else:
            self.transport.send(origin, reply, reply.size_bytes)
        predecessor = self.predecessor()
        if predecessor is not None:
            ack = AckUp(key=key, version=version)
            self.transport.send(predecessor, ack, ack.size_bytes)

    def _on_ack_up(self, src: NodeId, message: AckUp) -> None:
        meta = self._meta(message.key)
        meta.commit(message.version)
        predecessor = self.predecessor()
        if predecessor is not None:
            self.transport.send(predecessor, message, message.size_bytes)

    def _on_write_reply(self, src: NodeId, message: WriteReply) -> None:
        self._complete_local_write(message.op_id, message.value)

    def _complete_local_write(self, op_id: int, value: Value) -> None:
        entry = self._pending_client_ops.pop(op_id, None)
        if entry is None:
            return
        op, callback = entry
        self.complete(op, callback, OpStatus.OK, value)

    # ---------------------------------------------------------- dirty reads
    def _on_version_query(self, src: NodeId, message: VersionQuery) -> None:
        meta = self._meta(message.key)
        reply = VersionReply(
            key=message.key,
            committed_version=meta.committed_version,
            value=meta.committed_value(),
            op_id=message.op_id,
        )
        self.transport.send(
            message.origin, reply, reply.size_bytes + self.value_size_of(reply.value)
        )

    def _on_version_reply(self, src: NodeId, message: VersionReply) -> None:
        entry = self._pending_reads.pop(message.op_id, None)
        if entry is None:
            return
        op, callback = entry
        meta = self._meta(op.key)
        # Serve the version the tail reported committed; our local copy of
        # that version is still present because only older versions are
        # pruned on commit.
        value = meta.versions.get(message.committed_version, message.value)
        meta.commit(message.committed_version)
        self.complete(op, callback, OpStatus.OK, value)

    # --------------------------------------------------------------- helpers
    def _meta(self, key: Key) -> CraqKeyMeta:
        record = self.store.try_get_record(key)
        if record is None:
            record = self.store.put(key, None, meta=CraqKeyMeta())
            record.meta.versions[0] = None
        elif record.meta is None:
            record.meta = CraqKeyMeta()
            record.meta.versions[0] = record.value
        return record.meta

    def committed_value(self, key: Key) -> Value:
        """Latest committed value — from the version map, not the record.

        CRAQ never rewrites the raw record value after preload (committed
        state lives in :class:`CraqKeyMeta`), so the base implementation
        would return the preload-era value forever.
        """
        record = self.store.peek_record(key)
        if record is None or record.meta is None:
            return self.store.get(key)
        return record.meta.committed_value()

    HANDLERS = {
        WriteRequest: _on_write_request,
        WriteDown: _on_write_down,
        AckUp: _on_ack_up,
        WriteReply: _on_write_reply,
        VersionQuery: _on_version_query,
        VersionReply: _on_version_reply,
    }


register_protocol("craq", CraqReplica)
