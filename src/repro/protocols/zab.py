"""ZAB-style leader-based atomic broadcast (paper §5.1.1).

ZAB (the Zookeeper Atomic Broadcast protocol) routes every write through a
single leader that assigns a global order (zxid), proposes the write to all
followers, commits after a majority of acknowledgements and then broadcasts
commits. Reads are served locally at every replica, but are only
*sequentially consistent*: the paper deliberately evaluates this relaxed
mode to give ZAB its best-case performance (§5.1.1).

The defining performance property reproduced here is the leader bottleneck:
every write costs the leader O(n) message handling regardless of which node
received the client request, so write-heavy workloads serialize on the
leader's CPU (Figures 5a, 5b, 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Set

from repro.membership.view import MembershipView
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
class Proposal:
    """A leader proposal assigning ``zxid`` to a write (``seq``: the origin's
    number for it, in the header)."""

    zxid: int
    key: Key
    value: Value
    origin: NodeId
    op_id: int
    seq: int
    size_bytes: int = HEADER_BYTES


@dataclass(eq=False, slots=True)
class ProposalAck:
    """A follower acknowledgement of a proposal."""

    zxid: int
    size_bytes: int = HEADER_BYTES


@dataclass(eq=False, slots=True)
class Commit:
    """A leader commit notification for ``zxid``."""

    zxid: int
    size_bytes: int = HEADER_BYTES


@dataclass(slots=True)
class PendingProposal:
    """Leader-side bookkeeping for an in-flight proposal."""

    proposal: Proposal
    acks: Set[NodeId] = field(default_factory=set)
    committed: bool = False


class ZabReplica(OrderedReplica):
    """A replica running the ZAB-style protocol; the leader orders writes."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._next_zxid = 1
        #: Leader-side in-flight proposals keyed by zxid.
        self._proposals: Dict[int, PendingProposal] = {}
        #: Follower-side received proposals not yet applied, keyed by zxid.
        self._pending_log: Dict[int, Proposal] = {}
        #: Commits received ahead of their proposals or out of order.
        self._commit_backlog: Set[int] = set()
        self._last_applied_zxid = 0
        self.writes_committed = 0

    # ------------------------------------------------------------- features
    @classmethod
    def features(cls) -> ProtocolFeatures:
        """ZAB's row of the paper's Table 2."""
        return ProtocolFeatures(
            name="ZAB",
            consistency="sequential",
            local_reads=True,
            leases="none",
            inter_key_concurrent_writes=False,
            decentralized_writes=False,
            write_latency_rtt="2",
        )

    # ------------------------------------------------------------ leadership
    @property
    def leader(self) -> NodeId:
        """The current leader (first node of the shard's role ring).

        Unsharded groups elect the lowest node id, as before; sharded
        groups rotate the leader by shard id so each shard's ordering
        bottleneck lands on a different node.
        """
        return self.role_ring()[0]

    orderer = leader

    @property
    def is_leader(self) -> bool:
        """Whether this replica is the leader."""
        return self.node_id == self.leader

    def on_view_change(self, view: MembershipView) -> None:
        """A new view may elect a new leader (lowest surviving id)."""
        # In-flight proposals from a deposed leader are simply dropped; the
        # paper does not evaluate ZAB recovery and neither do the benchmarks.

    # ------------------------------------------------------------ leader side
    def _serialization_weight(self) -> float:
        """CPU weight of work pinned to the leader's single ordering thread.

        ZAB imposes a total order on all writes, which prevents the leader
        from spreading ordering, proposal tracking and in-order commit
        decisions across worker threads (paper §2.3, §5.1.1). The work is
        therefore charged at ``worker_threads`` times the parallelized cost,
        i.e. at the cost of one full (unparallelized) thread.
        """
        return float(self.service_model.worker_threads)

    def _accept(self, key: Key, value: Value, origin: NodeId, op_id: int, seq: int) -> None:
        """Propose the update under the next zxid."""
        zxid = self._next_zxid
        self._next_zxid += 1
        proposal = Proposal(zxid=zxid, key=key, value=value, origin=origin, op_id=op_id, seq=seq)
        pending = PendingProposal(proposal=proposal)
        pending.acks.add(self.node_id)
        self._proposals[zxid] = pending
        self._pending_log[zxid] = proposal
        # Serialization: assigning the zxid and appending to the ordered log
        # happens on the single ordering thread.
        self.charge_cpu(weight=self._serialization_weight())
        self.transport.broadcast(
            self.peers(), proposal, proposal.size_bytes + self.update_size_bytes(value)
        )
        self._maybe_commit(pending)

    def _on_proposal_ack(self, src: NodeId, ack: ProposalAck) -> None:
        pending = self._proposals.get(ack.zxid)
        if pending is None or pending.committed:
            return
        # Quorum tracking for the totally ordered log is likewise pinned to
        # the ordering thread.
        self.charge_cpu(weight=self._serialization_weight())
        pending.acks.add(src)
        self._maybe_commit(pending)

    def _maybe_commit(self, pending: PendingProposal) -> None:
        if pending.committed or len(pending.acks) < self.view.majority():
            return
        pending.committed = True
        commit = Commit(zxid=pending.proposal.zxid)
        self.transport.broadcast(self.peers(), commit, commit.size_bytes)
        self._on_commit(pending.proposal.zxid)
        self._proposals.pop(pending.proposal.zxid, None)

    # ---------------------------------------------------------- follower side
    def _on_proposal(self, src: NodeId, proposal: Proposal) -> None:
        self._pending_log[proposal.zxid] = proposal
        ack = ProposalAck(zxid=proposal.zxid)
        self.transport.send(self.leader, ack, ack.size_bytes)
        if proposal.zxid in self._commit_backlog:
            self._commit_backlog.discard(proposal.zxid)
            self._apply_in_order(proposal.zxid)

    def _on_commit_message(self, src: NodeId, message: Commit) -> None:
        self._on_commit(message.zxid)

    def _on_commit(self, zxid: int) -> None:
        if zxid not in self._pending_log:
            # Commit raced ahead of its proposal (possible with reordering).
            self._commit_backlog.add(zxid)
            return
        self._apply_in_order(zxid)

    def _apply_in_order(self, zxid: int) -> None:
        """Apply committed proposals strictly in zxid order."""
        self._commit_backlog.add(zxid)
        while (self._last_applied_zxid + 1) in self._commit_backlog:
            next_zxid = self._last_applied_zxid + 1
            proposal = self._pending_log.pop(next_zxid, None)
            if proposal is None:
                # Commit arrived before its proposal; wait for the proposal.
                break
            self._commit_backlog.discard(next_zxid)
            self._apply(proposal)
            self._last_applied_zxid = next_zxid

    def _apply(self, proposal: Proposal) -> None:
        self._record(proposal.origin, proposal.seq)
        self.store.put(proposal.key, proposal.value)
        self.writes_committed += 1
        if proposal.origin == self.node_id:
            self._complete_awaited(proposal.op_id, proposal.value)

    # --------------------------------------------------------------- helpers
    @property
    def applied_zxid(self) -> int:
        """The highest zxid applied locally (in order)."""
        return self._last_applied_zxid

    HANDLERS = {
        **OrderedReplica.HANDLERS,
        Proposal: _on_proposal,
        ProposalAck: _on_proposal_ack,
        Commit: _on_commit_message,
    }


register_protocol("zab", ZabReplica)
