"""Cross-shard multi-key transactions: two-phase commit over shard groups.

The replication protocols in this library are single-key linearizable, and
key-range sharding (:mod:`repro.cluster.sharding`) keeps shards fully
independent. This module layers *multi-key transactions* on top: a client
submits a :class:`~repro.types.Transaction` (several reads/writes whose keys
may span shards) and the cluster executes it atomically with respect to
other transactions.

Roles
-----

* **Coordinator** (:class:`TxnCoordinator`) — one per simulated node,
  created lazily on the node a client session is bound to. It groups the
  transaction's operations by shard, drives the commit protocol, and
  invokes the client callback with a :class:`TxnOutcome`.
* **Participant** (:class:`TxnParticipant`) — one per *lock-master replica*.
  Every shard designates one replica of its group as the lock master (the
  first node of the shard's rotated role ring, like a ZAB leader or chain
  head), and all transactions touching that shard acquire their key locks
  there. A common lock point per shard is what serializes conflicting
  transactions regardless of which node coordinates them.

Protocol
--------

Every involved shard's lock master runs one participant path:

1. **PREPARE** — the coordinator sends each involved shard's lock master a
   ``TxnPrepare`` with that shard's operations. The participant acquires
   per-key locks with **no-wait** semantics (a conflicting lock refuses the
   prepare immediately; no lock waiting means no distributed deadlock) and
   executes the shard's reads through the protocol's normal read path.
2. **COMMIT / ABORT** — a cross-shard transaction runs two-phase commit:
   each participant votes (NO on a refusal, YES with the read results), and
   all-YES commits: participants apply their writes through the protocol's
   normal (replicated) write path, release their locks, and acknowledge
   with a ``TxnAck`` carrying per-write commit instants. Any NO aborts:
   YES-voters release their locks and nothing is applied.

A single-shard transaction needs no vote: its prepare is marked
**one-phase**, and the participant applies the writes as soon as its reads
are done, then answers with the ``TxnAck`` directly (committed, with the
read results, or refused). So every "this shard is finished" reply is a
``TxnAck``.

Messages between coordinator and participants ride the existing transports:
each leaves through a replica of the target shard on the sending node, so
on a shard host it travels as a ``(shard, message)`` envelope over the
per-node inbox exactly like protocol traffic (see
:class:`repro.cluster.sharding.ShardHost`); a participant co-located with
the coordinator is reached through the node's local-work queue (CPU charged,
no wire bytes).

Failure handling is timeout-based and deterministic under the seeded
simulation: participants abort a prepared transaction (releasing its locks)
if no decision arrives within ``prepare_timeout`` — the coordinator's node
crashed mid-protocol — and coordinators abort a transaction whose votes or
acks never arrive within ``timeout`` (a lock-master crash). Both timeouts
are orders of magnitude above the simulated round-trip times, so they fire
only on real crashes. A coordinator that crashes *after* sending COMMIT to
some participants may leave the transaction partially applied; its client
callback is lost with the node, so the transaction is never reported
committed — the atomicity checker only constrains transactions whose
clients observed a response.

When the RM membership service is running, a **view change** resolves
stranded transactions ahead of the timeouts (see
:meth:`TxnCoordinator.on_view_change` / :meth:`TxnParticipant.on_view_change`,
invoked from the m-update fan-out): participants abort prepared
transactions whose coordinator left the view or whose lock mastership
moved — releasing the orphaned locks and resuming parked plain operations
immediately — and coordinators resolve transactions whose dispatched lock
master is no longer a member (abort when no commit was decided, the
indeterminate ``TIMEOUT`` outcome otherwise). The shard's new lock master
starts from this released state: its lock table is empty because every
stranded lock was torn down at the view change. The timeouts remain as the
backstop for runs without the membership service.

Consistency model: transactions are serializable **with respect to each
other** (strict two-phase locking at per-shard lock masters). Plain
single-key operations remain linearizable per key; those submitted at the
lock master additionally queue behind that shard's key locks, but plain
writes coordinated by *other* replicas of the group are not ordered against
in-flight transactions beyond per-key linearizability.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.cluster.sharding import ShardRouter
from repro.errors import ConfigurationError
from repro.types import (
    Key,
    NodeId,
    Operation,
    OpStatus,
    OpType,
    Transaction,
    TxnMessage,
    Value,
)

#: A client-facing transaction completion callback:
#: ``callback(txn, outcome)``.
TxnCallback = Callable[[Transaction, "TxnOutcome"], None]

#: Participant-side decision timeout (seconds): a prepared transaction whose
#: COMMIT/ABORT never arrives is aborted and its locks released. ~1000x the
#: simulated network round trip, so it fires only when the coordinator's
#: node actually crashed.
DEFAULT_PREPARE_TIMEOUT = 5e-3

#: Coordinator-side transaction timeout (seconds): votes or acks that never
#: arrive (a crashed lock master) abort the transaction client-side. Kept
#: below the participant timeout so the coordinator decides first.
DEFAULT_COORDINATOR_TIMEOUT = 2.5e-3

#: Fixed wire overhead (bytes) of the small control messages (ids, flags).
_CONTROL_BYTES = 24


# --------------------------------------------------------------- messages
@dataclass(slots=True)
class TxnPrepare(TxnMessage):
    """Lock ``ops``'s keys on one shard and read them.

    Two-phase, the participant then votes; ``one_phase`` (the transaction's
    only shard), it applies the writes at once and acks.
    """

    txn_id: int
    coordinator: NodeId
    shard: int
    ops: List[Operation]
    one_phase: bool = False


@dataclass(slots=True)
class TxnVote(TxnMessage):
    """Phase-1 reply: YES (with read results) or NO (lock conflict/failure)."""

    txn_id: int
    shard: int
    yes: bool
    values: Optional[Dict[int, Value]] = None


@dataclass(slots=True)
class TxnDecision(TxnMessage):
    """Phase-2 request: commit (apply buffered writes) or abort."""

    txn_id: int
    shard: int
    commit: bool


@dataclass(slots=True)
class TxnAck(TxnMessage):
    """The shard is finished with the transaction: applied or discarded it.

    Answers a decision, or a one-phase prepare directly. ``commit_times``
    maps each applied write's op id to the simulated instant its replicated
    update committed at the lock master — the per-key version order the
    atomicity checker relies on. ``values`` carries a one-phase commit's
    read results (a two-phase participant sent them with its YES vote).
    """

    txn_id: int
    shard: int
    committed: bool
    commit_times: Optional[Dict[int, float]] = None
    values: Optional[Dict[int, Value]] = None


#: Wire-cost registry (lint rule M001): transaction message sizes depend on
#: their payload, so the byte count is computed at each send site; the entry
#: here states the formula the send site uses. Two of them undercount: a
#: prepare carries no control overhead, and an ack charges each read value
#: 8 B rather than ``value_size``. Both stay until the committed baselines
#: are re-seeded (ROADMAP, "A baseline epoch").
WIRE_COSTS = {
    TxnPrepare: "ops_wire_size(ops, key_size, value_size)",
    TxnVote: "_CONTROL_BYTES + value_size * len(values)",
    TxnDecision: "_CONTROL_BYTES",
    TxnAck: "_CONTROL_BYTES + 8 * len(commit_times) + 8 * len(values)",
}


class TxnOutcome:
    """What a completed transaction reports back to the client.

    Attributes:
        status: ``OK`` (committed), ``ABORTED`` (lock conflict or a
            participant failure) or ``TIMEOUT`` (a crash stalled the
            protocol past the coordinator timeout).
        values: Read results by op id (committed transactions only).
        commit_times: Simulated commit instant of each applied write by op
            id, as reported by the lock masters.
    """

    __slots__ = ("status", "values", "commit_times")

    def __init__(
        self,
        status: OpStatus,
        values: Optional[Dict[int, Value]] = None,
        commit_times: Optional[Dict[int, float]] = None,
    ) -> None:
        self.status = status
        self.values = values if values is not None else {}
        self.commit_times = commit_times if commit_times is not None else {}

    @property
    def committed(self) -> bool:
        """Whether the transaction committed."""
        return self.status is OpStatus.OK


def ops_wire_size(ops: List[Operation], key_size: int, value_size: int) -> int:
    """Approximate wire size of a batch of operations (keys + write payloads)."""
    size = 0
    for op in ops:
        size += key_size
        if op.op_type is not OpType.READ:
            size += value_size
    return size


# ------------------------------------------------------------- participant
class _ParticipantTxn:
    """Lock-master-side state of one prepared/executing transaction."""

    __slots__ = (
        "txn_id",
        "coordinator",
        "shard",
        "one_phase",
        "keys",
        "writes",
        "values",
        "commit_times",
        "reads_outstanding",
        "writes_outstanding",
        "failed",
        "voted",
        "committing",
        "timer",
    )

    def __init__(self, msg: TxnPrepare, keys: List[Key]) -> None:
        self.txn_id = msg.txn_id
        self.coordinator = msg.coordinator
        self.shard = msg.shard
        self.one_phase = msg.one_phase
        self.keys = keys
        self.writes = [op for op in msg.ops if op.op_type is not OpType.READ]
        self.values: Dict[int, Value] = {}
        self.commit_times: Dict[int, float] = {}
        self.reads_outstanding = 0
        self.writes_outstanding = 0
        self.failed = False
        #: The reads are done: voted, or (one-phase) committing.
        self.voted = False
        self.committing = False
        self.timer = None


class TxnParticipant:
    """The lock-master side of the transaction layer, one per replica.

    Owns the shard's key-lock table and the prepared-transaction state.
    Created lazily by :func:`participant_of` on the first transaction
    message a replica receives, so transaction-free runs carry no state
    and pay no per-operation cost beyond a ``None`` check.
    """

    def __init__(self, replica: Any, prepare_timeout: float = DEFAULT_PREPARE_TIMEOUT) -> None:
        self.replica = replica
        self.prepare_timeout = prepare_timeout
        #: Key -> owning txn id. Non-empty only while transactions are in
        #: flight; plain operations submitted at this replica queue behind
        #: these locks (see ``ReplicaNode.on_local_work``).
        self.locks: Dict[Key, int] = {}
        #: Plain operations parked behind a locked key.
        self.waiters: Dict[Key, List[Tuple[Operation, Any]]] = {}
        #: Txn id -> in-flight state.
        self.prepared: Dict[int, _ParticipantTxn] = {}
        #: Txn id -> when this shard finished with it (refused, aborted or
        #: applied), oldest first; kept for ``prepare_timeout``.
        self.finished: Dict[int, float] = {}
        # Statistics.
        self.conflicts = 0
        self.prepare_timeouts = 0
        self.ops_parked = 0
        self.view_change_aborts = 0

    def park(self, op: Operation, callback: Any) -> None:
        """Queue a plain operation behind the lock on its key."""
        self.ops_parked += 1
        self.waiters.setdefault(op.key, []).append((op, callback))

    def on_view_change(self, view: Any) -> None:
        """Abort prepared transactions stranded by a membership change.

        Two cases strand a prepared (not yet committing) transaction here:
        its coordinator's node left the view (the decision will never
        arrive), or this replica stopped being its shard's lock master (the
        member removal shifted the rotated role ring, so coordinators now
        lock at another node). Both abort immediately — locks release and
        parked plain operations resume — instead of waiting for the
        prepare timeout; the new lock master starts from this released
        state (its lock table is empty because every lock the old masters
        held is torn down here). Transactions already committing finish
        unconditionally, exactly as under a coordinator crash.
        """
        if not self.prepared:
            return
        replica = self.replica
        still_master = bool(view.members) and view.role_ring(replica.shard_id)[0] == replica.node_id
        for txn_id in list(self.prepared):
            state = self.prepared.get(txn_id)
            if state is None or state.committing:
                continue
            if not still_master or state.coordinator not in view.members:
                self.view_change_aborts += 1
                self._teardown(state)
                if state.one_phase and state.coordinator in view.members:
                    # A one-phase transaction resolves through its ack (the
                    # coordinator cannot tell an aborted visit from one
                    # whose ack was lost): tell the coordinator the visit
                    # applied nothing.
                    self._refuse(state)

    # ------------------------------------------------------------ phase 1
    def _try_lock(self, txn_id: int, ops: List[Operation]) -> Optional[List[Key]]:
        """No-wait lock acquisition: all keys or none."""
        locks = self.locks
        keys: List[Key] = []
        for op in ops:
            key = op.key
            if key in keys:
                continue
            if key in locks:
                self.conflicts += 1
                return None
            keys.append(key)
        for key in keys:
            locks[key] = txn_id
        return keys

    def _on_prepare(self, msg: TxnPrepare) -> None:
        """Lock and read, or refuse; drop a prepare seen before.

        The fabric may duplicate a prepare (paper §3.4). A second copy that
        found the first one's locks would be refused, and the refusal of a
        one-phase transaction reads as "applied nothing" although the first
        copy applied its writes. So a prepare whose transaction is prepared
        here, or finished here within ``prepare_timeout``, is dropped with
        no reply. That bound relies on the fabric's bounded delay: every
        copy of a message arrives within far less than ``prepare_timeout``
        of the first, so an id older than that can be forgotten.
        """
        txn_id = msg.txn_id
        if txn_id in self.prepared or txn_id in self.finished:
            return
        replica = self.replica
        keys = None
        if (
            replica.is_operational()
            and self._is_lock_master()
            and not self._frozen_conflict(msg.ops)
        ):
            keys = self._try_lock(msg.txn_id, msg.ops)
        if keys is None:
            self._finish(txn_id)
            self._refuse(msg)
            return
        state = _ParticipantTxn(msg, keys)
        self.prepared[msg.txn_id] = state
        state.timer = replica.set_timer(self.prepare_timeout, self._prepare_expired, msg.txn_id)
        self._start_reads(state, [op for op in msg.ops if op.op_type is OpType.READ])

    def _refuse(self, txn: TxnPrepare | _ParticipantTxn) -> None:
        """Tell the coordinator this shard applied nothing: a NO vote, or
        the failed ack that ends a one-phase transaction."""
        reply: TxnMessage = (
            TxnAck(txn.txn_id, txn.shard, False)
            if txn.one_phase
            else TxnVote(txn.txn_id, txn.shard, False)
        )
        _send(self.replica, txn.coordinator, reply, _CONTROL_BYTES)

    def _start_reads(self, state: _ParticipantTxn, reads: List[Operation]) -> None:
        state.reads_outstanding = len(reads)
        if not reads:
            self._reads_done(state)
            return
        replica = self.replica
        for op in reads:
            replica.handle_client_op(op, partial(self._read_done, state.txn_id))
        self._flush()

    def _read_done(self, txn_id: int, op: Operation, status: OpStatus, value: Value) -> None:
        state = self.prepared.get(txn_id)
        if state is None or state.voted:
            return
        if status is OpStatus.OK:
            state.values[op.op_id] = value
        else:
            state.failed = True
        state.reads_outstanding -= 1
        if state.reads_outstanding == 0:
            self._reads_done(state)

    def _reads_done(self, state: _ParticipantTxn) -> None:
        state.voted = True
        if state.failed:
            self._teardown(state)
            self._refuse(state)
            return
        if state.one_phase:
            self._start_writes(state)
            return
        replica = self.replica
        size = _CONTROL_BYTES + len(state.values) * replica.config.value_size
        _send(
            replica,
            state.coordinator,
            TxnVote(state.txn_id, state.shard, True, dict(state.values)),
            size,
        )

    # ------------------------------------------------------------ phase 2
    def _on_decision(self, msg: TxnDecision) -> None:
        state = self.prepared.get(msg.txn_id)
        if state is None:
            # Already aborted locally: the prepare timed out (coordinator
            # crash) before this decision arrived, or the coordinator's own
            # timeout aborted a transaction this shard voted NO on (it holds
            # no locks). Nothing to apply or release; the coordinator has
            # already resolved the transaction client-side.
            return
        if state.committing:
            # Writes are already being applied (e.g. a coordinator-timeout
            # abort racing a one-phase commit): commits are unconditional
            # once started, so the late decision is ignored.
            return
        if not msg.commit:
            self._teardown(state)
            ack = TxnAck(state.txn_id, state.shard, False)
            _send(self.replica, state.coordinator, ack, _CONTROL_BYTES)
            return
        self._start_writes(state)

    def _start_writes(self, state: _ParticipantTxn) -> None:
        state.committing = True
        if state.timer is not None:
            state.timer.cancel()
        writes = state.writes
        state.writes_outstanding = len(writes)
        if not writes:
            self._writes_done(state)
            return
        replica = self.replica
        for op in writes:
            replica.handle_client_op(op, partial(self._write_done, state.txn_id))
        self._flush()

    def _write_done(self, txn_id: int, op: Operation, status: OpStatus, value: Value) -> None:
        state = self.prepared.get(txn_id)
        if state is None:
            return
        # Plain replicated writes only fail when the replica stops being
        # operational mid-commit; a failed update was not applied, so it
        # must not enter the per-key version order.
        if status is OpStatus.OK:
            state.commit_times[op.op_id] = self.replica.sim.now
        state.writes_outstanding -= 1
        if state.writes_outstanding == 0:
            self._writes_done(state)

    def _writes_done(self, state: _ParticipantTxn) -> None:
        self._teardown(state)
        size = _CONTROL_BYTES + 8 * len(state.commit_times)
        values = None
        if state.one_phase:
            values = dict(state.values)
            size += 8 * len(values)
        ack = TxnAck(state.txn_id, state.shard, True, dict(state.commit_times), values)
        _send(self.replica, state.coordinator, ack, size)

    def _is_lock_master(self) -> bool:
        """Whether this replica masters its shard under *its current* view.

        A demoted master must reject new prepares: during the brief window
        where nodes install an m-update at different instants, a
        coordinator still on the old view may lock at the old master while
        another (on the new view) locks at the new one — two lock points
        for one shard would break the strict-2PL serialization. The check
        is the rotated role ring's head, which is cached per view object.
        """
        replica = self.replica
        ring = replica.role_ring()
        return bool(ring) and ring[0] == replica.node_id

    def _frozen_conflict(self, ops: List[Operation]) -> bool:
        """Whether any key is frozen by an in-flight shard migration.

        Migrating keys cannot take new locks: the transaction votes NO (a
        plain abort, retriable by the client) rather than holding locks
        across the routing flip — after which this replica no longer owns
        the keys.
        """
        frozen = self.replica._frozen
        if frozen is None:
            return False
        matches = frozen.matches
        return any(matches(op.key) for op in ops)

    # ------------------------------------------------------------ timeouts
    def _prepare_expired(self, txn_id: int) -> None:
        state = self.prepared.get(txn_id)
        if state is None or state.committing:
            # Committing transactions finish unconditionally (their timer
            # was cancelled; this guards a same-instant race).
            return
        self.prepare_timeouts += 1
        self._teardown(state)

    # ------------------------------------------------------------- helpers
    def _teardown(self, state: _ParticipantTxn) -> None:
        """The single exit path of a prepared transaction at this shard.

        Cancels the decision timer, drops the prepared state, releases the
        transaction's locks and resumes plain operations parked on them —
        in that order, so resumed work can never observe the transaction
        as still prepared. Callers send their protocol reply afterwards.
        """
        if state.timer is not None:
            state.timer.cancel()
        self.prepared.pop(state.txn_id, None)
        self._finish(state.txn_id)
        self._release(state)

    def _finish(self, txn_id: int) -> None:
        """Remember that this shard is done with ``txn_id``, and forget the
        ids finished more than ``prepare_timeout`` ago."""
        finished = self.finished
        now = self.replica.sim.now
        horizon = now - self.prepare_timeout
        while finished:
            oldest = next(iter(finished))
            if finished[oldest] >= horizon:
                break
            del finished[oldest]
        finished[txn_id] = now

    def _release(self, state: _ParticipantTxn) -> None:
        """Release the transaction's locks and resume parked plain ops."""
        locks = self.locks
        waiters = self.waiters
        resumed: List[Tuple[Operation, Any]] = []
        for key in state.keys:
            if locks.get(key) == state.txn_id:
                del locks[key]
            parked = waiters.pop(key, None)
            if parked:
                resumed.extend(parked)
        if not resumed:
            return
        replica = self.replica
        for op, callback in resumed:
            if op.key in locks:  # re-locked while draining
                waiters.setdefault(op.key, []).append((op, callback))
            else:
                replica.handle_client_op(op, callback)
        self._flush()

    def _flush(self) -> None:
        replica = self.replica
        transport = replica.transport
        if transport is not replica:
            transport.flush()


def participant_of(replica: Any) -> TxnParticipant:
    """The replica's lock-master participant, created on first use."""
    participant = replica._txn_participant
    if participant is None:
        participant = replica._txn_participant = TxnParticipant(replica)
    return participant


# ------------------------------------------------------------ coordinator
class _CoordinatorTxn:
    """Coordinator-side state of one in-flight transaction."""

    __slots__ = (
        "txn",
        "callback",
        "by_shard",
        "masters",
        "awaiting_votes",
        "awaiting_acks",
        "values",
        "commit_times",
        "no_vote",
        "decided_commit",
        "timer",
    )

    def __init__(self, txn: Transaction, callback: TxnCallback, by_shard: Dict[int, List[Operation]]):
        self.txn = txn
        self.callback = callback
        self.by_shard = by_shard
        #: Shard -> the lock-master node each message was dispatched to,
        #: recorded at dispatch time so a view change can tell which
        #: participants this transaction actually talked to.
        self.masters: Dict[int, NodeId] = {}
        self.awaiting_votes: Set[int] = set()
        self.awaiting_acks: Set[int] = set()
        self.values: Dict[int, Value] = {}
        self.commit_times: Dict[int, float] = {}
        self.no_vote = False
        self.decided_commit = False
        self.timer = None


class TxnCoordinator:
    """Per-node two-phase-commit coordinator for client transactions.

    Constructed lazily (:func:`coordinator_of`) on the node a transaction
    is first submitted to, and bound to the node's replicas in shard order.
    Every message to a lock master leaves through the node's replica of the
    target shard, so a shard host's guest adds the shard envelope exactly
    like protocol traffic. Transactions route through the node's
    epoch-versioned router, so they follow live shard migrations the
    instant the routing flip installs on this node.

    It takes one reply per (transaction, shard): a vote only while that
    shard's vote is awaited, an ack only while its ack is. A later copy of
    either (the fabric may duplicate messages, paper §3.4) is ignored.
    """

    def __init__(
        self,
        node: Any,
        replicas: List[Any],
        router: ShardRouter,
        timeout: float = DEFAULT_COORDINATOR_TIMEOUT,
    ) -> None:
        self.node = node
        self.timeout = timeout
        self._replicas = replicas
        self.num_shards = len(replicas)
        self._router = router
        # masters cache, invalidated by view-object identity (views are
        # frozen; every membership change installs a new one) — all
        # coordinators therefore agree on lock placement for a given view,
        # whenever they were created.
        self._masters_view = None
        self._masters: List[NodeId] = []
        self._key_size = replicas[0].config.key_size
        self._value_size = replicas[0].config.value_size
        self._active: Dict[int, _CoordinatorTxn] = {}
        # Statistics (summed across nodes by ``Cluster.txn_stat``).
        self.txns_committed = 0
        self.txns_aborted = 0
        self.txns_timedout = 0
        self.txns_fastpath = 0
        self.txns_cross_shard = 0
        self.txns_view_aborted = 0

    @property
    def masters(self) -> List[NodeId]:
        """Shard -> lock-master node id, under the current membership view.

        The first node of each shard's rotated role ring (matching
        ``ReplicaNode.role_ring``), so lock mastership spreads across nodes
        exactly like the protocols' placed roles — and moves with them on a
        membership change. Transactions in flight across a view change are
        resolved by :meth:`on_view_change`.
        """
        view = self._replicas[0].view
        if view is not self._masters_view:
            self._masters_view = view
            self._masters = [view.role_ring(shard)[0] for shard in range(self.num_shards)]
        return self._masters

    # -------------------------------------------------------------- client
    def begin(self, txn: Transaction, callback: TxnCallback) -> None:
        """Start executing a client transaction.

        Raises:
            ConfigurationError: if the transaction contains an RMW. The
                commit phase applies buffered updates unconditionally, and
                an RMW can lose its conflict resolution *after* the commit
                decision — votes would no longer mean what 2PC requires.
                Express conditional updates as a transactional read plus a
                write, which the key locks make atomic.
        """
        for op in txn.ops:
            if op.op_type is OpType.RMW:
                raise ConfigurationError(
                    "transactions support reads and writes only; "
                    f"operation {op.op_id} is an RMW"
                )
        shard_of = self._router.shard_of
        by_shard: Dict[int, List[Operation]] = {}
        for op in txn.ops:
            by_shard.setdefault(shard_of(op.key), []).append(op)
        state = _CoordinatorTxn(txn, callback, by_shard)
        self._active[txn.txn_id] = state
        state.timer = self.node.set_timer(self.timeout, self._expired, txn.txn_id)
        # A single shard commits in one phase: its ack is the only reply.
        one_phase = len(by_shard) == 1
        if one_phase:
            self.txns_fastpath += 1
            state.awaiting_acks = set(by_shard)
        else:
            self.txns_cross_shard += 1
            state.awaiting_votes = set(by_shard)
        masters = self.masters
        for shard, ops in by_shard.items():
            master = state.masters[shard] = masters[shard]
            prepare = TxnPrepare(txn.txn_id, self.node.node_id, shard, ops, one_phase)
            _send(
                self._replicas[shard],
                master,
                prepare,
                ops_wire_size(ops, self._key_size, self._value_size),
            )

    # ---------------------------------------------------------------- 2PC
    def _decide(self, state: _CoordinatorTxn, commit: bool, members: Any = None) -> None:
        """Send the decision to every dispatch-time master (only to those
        in ``members``, when given): the nodes that hold the prepared state,
        even if a view change has since moved the mastership."""
        txn_id = state.txn.txn_id
        for shard, master in state.masters.items():
            if members is None or master in members:
                decision = TxnDecision(txn_id, shard, commit)
                _send(self._replicas[shard], master, decision, _CONTROL_BYTES)

    def _on_vote(self, msg: TxnVote) -> None:
        state = self._active.get(msg.txn_id)
        if state is None or msg.shard not in state.awaiting_votes:
            return
        state.awaiting_votes.discard(msg.shard)
        if msg.yes:
            state.values.update(msg.values or ())
        else:
            state.no_vote = True
        if state.awaiting_votes:
            return
        if state.no_vote:
            # Abort: release YES-voters. NO-voters hold no locks. The acks
            # for aborts carry nothing the client needs, so the transaction
            # completes now.
            self._decide(state, False)
            self._complete(state, OpStatus.ABORTED)
            return
        state.decided_commit = True
        state.awaiting_acks = set(state.by_shard)
        self._decide(state, True)

    def _on_ack(self, msg: TxnAck) -> None:
        state = self._active.get(msg.txn_id)
        if state is None or msg.shard not in state.awaiting_acks:
            return
        if not msg.committed:
            # Only a one-phase transaction awaits an ack that can fail: its
            # participant refused the prepare or aborted the visit.
            self._complete(state, OpStatus.ABORTED)
            return
        state.awaiting_acks.discard(msg.shard)
        state.values.update(msg.values or ())
        state.commit_times.update(msg.commit_times or ())
        if not state.awaiting_acks:
            self._complete(state, OpStatus.OK)

    def _expired(self, txn_id: int) -> None:
        state = self._active.get(txn_id)
        if state is None:
            return
        if not state.decided_commit:
            # No commit was ever decided: YES-voters release their locks
            # and nothing was applied anywhere.
            self._decide(state, False)
        # Either way the outcome is TIMEOUT, not OK: with a commit decided
        # but unacked, a crashed lock master may never have applied its
        # writes, so the transaction cannot be reported atomically
        # committed. TIMEOUT marks it *indeterminate* — the atomicity
        # checker constrains neither its visibility nor its invisibility
        # (like an operation that never returned).
        self._complete(state, OpStatus.TIMEOUT)

    def on_view_change(self, view: Any) -> None:
        """Resolve in-flight transactions stranded by a membership change.

        A transaction that dispatched to a lock master no longer in the
        view cannot make progress: the departed master's votes/acks will
        never arrive. Instead of waiting for the coordinator timeout, the
        transaction resolves now:

        * **Cross-shard, no commit decided** — nothing was applied
          anywhere, so the outcome is a clean ``ABORTED``; abort decisions
          go to the dispatch-time masters still in the view (participants
          whose mastership merely *moved* also strand prepared state —
          they release on their own view-change hook, and the coordinator
          aborts here rather than deciding a commit no one can apply).
        * **Commit decided, a dispatched master dead** — surviving
          participants apply unconditionally but the dead master's writes
          may be lost: the indeterminate ``TIMEOUT`` outcome.
        * **One-phase (single-shard)** — the one visit both locks and
          applies, like a decided commit: an undelivered ack from a dead
          master is indeterminate (``TIMEOUT``, exactly like ``_expired``);
          a live but demoted master acks on its own (a view-change abort
          sends an explicit failed ack), so those resolve through the
          normal message flow.
        """
        if not self._active:
            return
        members = view.members
        current = self.masters
        for txn_id in list(self._active):
            state = self._active.get(txn_id)
            if state is None:
                continue
            dead = any(m not in members for m in state.masters.values())
            moved = any(
                m in members and m != current[shard]
                for shard, m in state.masters.items()
            )
            if not dead and not moved:
                continue
            if state.decided_commit or len(state.by_shard) == 1:
                if dead:
                    self.txns_view_aborted += 1
                    self._complete(state, OpStatus.TIMEOUT)
                # Moved-only: the decisions (or the one-phase prepare) went
                # to the dispatch-time masters, which finish and ack normally.
                continue
            self.txns_view_aborted += 1
            self._decide(state, False, members)
            self._complete(state, OpStatus.ABORTED)

    def _complete(self, state: _CoordinatorTxn, status: OpStatus) -> None:
        if state.timer is not None:
            state.timer.cancel()
        del self._active[state.txn.txn_id]
        if status is OpStatus.OK:
            self.txns_committed += 1
        elif status is OpStatus.ABORTED:
            self.txns_aborted += 1
        else:
            self.txns_timedout += 1
        state.callback(state.txn, TxnOutcome(status, state.values, state.commit_times))

    @property
    def active_txns(self) -> int:
        """Number of transactions currently in flight at this coordinator."""
        return len(self._active)


def _send(replica: Any, dst: NodeId, message: TxnMessage, size: int) -> None:
    """Send from ``replica`` to node ``dst``. A self-send is local work on
    the replica's node, run by the replica's ``dispatch`` (CPU charged, no
    wire bytes); a guest replica's ``send`` adds its ``(shard, message)``
    envelope."""
    if dst == replica.node_id:
        node = replica.node
        node._push_local(
            node.sim._now, node.service_model.cost(size), replica.dispatch, (dst, message)
        )
    else:
        replica.send(dst, message, size_bytes=size)


def coordinator_of(replica: Any) -> TxnCoordinator:
    """The coordinator of the node ``replica`` runs on, created on first use."""
    node = replica.node
    coordinator = node._txn_coordinator
    if coordinator is None:
        if node is replica:  # a standalone replica is its node's only shard
            coordinator = TxnCoordinator(node, [replica], ShardRouter(1))
        else:
            coordinator = TxnCoordinator(node, node.shard_replicas, node.router)
        node._txn_coordinator = coordinator
    return coordinator


def _to_participant(method: Callable[[TxnParticipant, Any], None]):
    return lambda replica, src, message: method(participant_of(replica), message)


def _to_coordinator(method: Callable[[TxnCoordinator, Any], None]):
    def handler(replica: Any, src: NodeId, message: Any) -> None:
        coordinator = replica.node._txn_coordinator
        if coordinator is not None:
            method(coordinator, message)

    return handler


#: The transaction layer's entries in every replica's dispatch table, called
#: as ``handler(replica, src, message)``. Participant-bound messages
#: (prepare, decision) go to the replica's own lock-master
#: participant, created on first use. Coordinator-bound replies go to the
#: coordinator of the replica's *node*; a reply reaching a node without a
#: coordinator is ignored. (A client's transaction is not a message: it
#: reaches the coordinator through ``ReplicaNode.submit``.)
TXN_HANDLERS: Dict[type, Callable[[Any, NodeId, Any], None]] = {
    TxnPrepare: _to_participant(TxnParticipant._on_prepare),
    TxnDecision: _to_participant(TxnParticipant._on_decision),
    TxnVote: _to_coordinator(TxnCoordinator._on_vote),
    TxnAck: _to_coordinator(TxnCoordinator._on_ack),
}
