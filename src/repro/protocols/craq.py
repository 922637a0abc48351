"""CRAQ: Chain Replication with Apportioned Queries (Terrace & Freedman).

CRAQ is the strongest baseline in the paper (§2.5, §5.1.2): plain chain
replication (:mod:`repro.protocols.chain`) plus apportioned queries. Writes
enter at the head and travel down the chain, committing at the tail, after
which acknowledgements travel back up. Reads are served locally by any node
*unless* the node holds a dirty (not yet acknowledged) version of the key,
in which case it must ask the tail which version has committed.

The two structural weaknesses the paper identifies are reproduced by
construction:

* writes traverse the entire chain sequentially, so write latency grows with
  the replication degree (O(n) in Table 2);
* dirty reads are redirected to the tail, which becomes a hotspot under
  skew or high write ratios (Figures 5b, 6c, 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.kvs.store import ValueRecord
from repro.protocols.base import (
    HEADER_BYTES,
    ClientCallback,
    ProtocolFeatures,
    register_protocol,
)
from repro.protocols.chain import ChainReplicationReplica
from repro.types import Key, NodeId, Operation, OpStatus, Value


# --------------------------------------------------------------------------
# Wire messages
# --------------------------------------------------------------------------
# Plain slotted dataclasses compared by identity, not frozen: see the note in
# repro.core.messages (a frozen __init__ costs ~4x; the sanitizer and lint
# M-rules guard mutation instead).
@dataclass(eq=False, slots=True)
class AckUp:
    """A commit acknowledgement propagating up the chain (tail towards head)."""

    key: Key
    version: int
    size_bytes: int = HEADER_BYTES


@dataclass(eq=False, slots=True)
class VersionQuery:
    """A dirty read asking the tail which version of a key has committed."""

    key: Key
    origin: NodeId
    op_id: int
    size_bytes: int = HEADER_BYTES


@dataclass(eq=False, slots=True)
class VersionReply:
    """The tail's answer to a :class:`VersionQuery`."""

    key: Key
    committed_version: int
    value: Value
    op_id: int
    size_bytes: int = HEADER_BYTES


# --------------------------------------------------------------------------
# Per-key state
# --------------------------------------------------------------------------
@dataclass(slots=True)
class CraqRecord(ValueRecord):
    """A key's record at one CRAQ chain node: its versions, clean and dirty.

    ``value`` is the value the record was created with (version 0); the
    protocol never rewrites it, and reads go through the version map.

    Attributes:
        versions: Values of all versions newer than (and including) the
            locally known committed version.
        latest_version: Highest version this node has applied (dirty or not).
        committed_version: Highest version this node knows to be committed.
    """

    versions: Dict[int, Value] = field(init=False)
    latest_version: int = 0
    committed_version: int = 0

    def __post_init__(self) -> None:
        self.versions = {0: self.value}

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


class CraqReplica(ChainReplicationReplica):
    """A CRAQ chain node: the CR chain with per-key versions and local reads.

    It changes three things about :class:`ChainReplicationReplica`: each
    key keeps all uncommitted versions (:class:`CraqRecord`) instead of one
    guarded counter, the tail starts an :class:`AckUp` wave that marks a
    version committed up the chain, and any node serves a read of a clean
    key locally.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.tail_queries = 0

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

    def predecessor(self) -> Optional[NodeId]:
        """The next node up the chain, or ``None`` at the head."""
        index = self._chain.index(self.node_id)
        return self._chain[index - 1] if index > 0 else None

    # ---------------------------------------------------- apportioned reads
    def _read(self, op: Operation, callback: ClientCallback) -> None:
        record = self.store.record(op.key)
        if not record.dirty or self.is_tail:
            self.reads_served_locally += 1
            self.complete(op, callback, OpStatus.OK, record.committed_value())
            return
        # Dirty read: ask the tail which version committed (paper §2.5).
        self.reads_served_remotely += 1
        self.tail_queries += 1
        self._awaiting[op.op_id] = (op, callback)
        query = VersionQuery(key=op.key, origin=self.node_id, op_id=op.op_id)
        self.transport.send(self.tail, query, query.size_bytes)

    def _on_version_query(self, src: NodeId, message: VersionQuery) -> None:
        record = self.store.record(message.key)
        reply = VersionReply(
            key=message.key,
            committed_version=record.committed_version,
            value=record.committed_value(),
            op_id=message.op_id,
        )
        self.transport.send(
            message.origin, reply, reply.size_bytes + self.value_size_of(reply.value)
        )

    def _on_version_reply(self, src: NodeId, message: VersionReply) -> None:
        entry = self._awaiting.pop(message.op_id, None)
        if entry is None:
            return
        op, callback = entry
        record = self.store.record(op.key)
        # Serve the version the tail reported committed; our local copy of
        # that version is still present because only older versions are
        # pruned on commit.
        value = record.versions.get(message.committed_version, message.value)
        record.commit(message.committed_version)
        self.complete(op, callback, OpStatus.OK, value)

    # ------------------------------------------------------- commit wave
    def _tail_commit(self, key: Key, version: int, value: Value, origin: NodeId, op_id: int) -> None:
        self.store.record(key).commit(version)
        super()._tail_commit(key, version, value, origin, op_id)
        predecessor = self.predecessor()
        if predecessor is not None:
            ack = AckUp(key=key, version=version)
            self.transport.send(predecessor, ack, ack.size_bytes)

    def _on_ack_up(self, src: NodeId, message: AckUp) -> None:
        self.store.record(message.key).commit(message.version)
        predecessor = self.predecessor()
        if predecessor is not None:
            self.transport.send(predecessor, message, message.size_bytes)

    # -------------------------------------------------------- per-key state
    def _next_version(self, key: Key, value: Value) -> int:
        record = self.store.record(key)
        version = record.latest_version + 1
        record.apply(version, value)
        return version

    def _install(self, key: Key, version: int, value: Value) -> None:
        # Every version is kept until committed, so a reordered write-down
        # needs no guard.
        self.store.record(key).apply(version, value)

    def committed_value(self, key: Key) -> Value:
        """Latest committed value — from the version map, not the record's value.

        CRAQ never rewrites the raw record value after preload (committed
        state lives in :class:`CraqRecord`'s version map), so the base
        implementation would return the preload-era value forever.
        """
        record = self.store.peek_record(key)
        if record is None:
            return self.store.get(key)
        return record.committed_value()

    def latest_value(self, key: Key) -> Value:
        """The value of the newest version applied here, committed or not."""
        record = self.store.peek_record(key)
        if record is None:
            return self.store.get(key)
        return record.versions.get(record.latest_version, record.committed_value())

    RECORD = CraqRecord
    HANDLERS = {
        **ChainReplicationReplica.HANDLERS,
        AckUp: _on_ack_up,
        VersionQuery: _on_version_query,
        VersionReply: _on_version_reply,
    }


register_protocol("craq", CraqReplica)
