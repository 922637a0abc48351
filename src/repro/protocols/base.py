"""Shared machinery for replication-protocol replicas.

Every protocol in the library (Hermes and the baselines) subclasses
:class:`ReplicaNode`, which layers three things on top of the simulated
:class:`~repro.sim.node.NodeProcess`:

* a client entry point (:meth:`ReplicaNode.submit`) with completion
  callbacks,
* membership integration (a per-replica
  :class:`~repro.membership.agent.MembershipAgent`, epoch-tagged message
  filtering, view-change notification),
* one exact-class dispatch table routing every message the replica
  receives — membership, transaction and protocol traffic, from the
  network (one message per packet, or a Wings packet's batch) or from the
  local-work queue.

Protocols implement :meth:`handle_client_op`, list their message handlers
in :attr:`ReplicaNode.HANDLERS` and describe themselves through
:class:`ProtocolFeatures` (the data behind the paper's Table 2).

The baselines that serialize every update through one node (CR and CRAQ's
chain head, ZAB's leader, Derecho's sequencer) share one write path,
:class:`OrderedReplica`: one forwarded write, one handler that only the
current orderer acts on, and one completion step at the origin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple, Type

from repro.errors import ConfigurationError, SimulationError
from repro.kvs.store import KeyValueStore, ValueRecord
from repro.membership.agent import MembershipAgent
from repro.membership.messages import MembershipMessage
from repro.membership.view import MembershipView
from repro.sim.clock import ClockConfig, LooselySynchronizedClock
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.node import NodeProcess, ServiceTimeModel
from repro.types import Key, NodeId, Operation, OpStatus, OpType, Transaction, Value

#: A dispatch-table entry: ``handler(replica, src, message)``.
Handler = Callable[[Any, NodeId, Any], None]

#: Completion callback invoked by a replica when an operation finishes:
#: ``callback(op, status, value)``.
ClientCallback = Callable[[Operation, OpStatus, Value], None]

#: Wire overhead of a baseline protocol message's control fields (versions,
#: sequence numbers, ids).
HEADER_BYTES = 16


@dataclass(frozen=True)
class ProtocolFeatures:
    """Feature descriptor of a replication protocol (paper Table 2).

    Attributes:
        name: Human-readable protocol name.
        consistency: ``"linearizable"`` or ``"sequential"``.
        local_reads: Whether every replica can serve reads locally.
        leases: Lease requirement, e.g. ``"one per RM"`` or ``"none"``.
        inter_key_concurrent_writes: Whether independent keys can be written
            concurrently.
        decentralized_writes: Whether any replica can coordinate a write.
        write_latency_rtt: Qualitative write latency in round trips, e.g.
            ``"1"``, ``"2"`` or ``"O(n)"``.
    """

    name: str
    consistency: str
    local_reads: bool
    leases: str
    inter_key_concurrent_writes: bool
    decentralized_writes: bool
    write_latency_rtt: str


@dataclass
class ReplicaConfig:
    """Configuration shared by all protocol replicas.

    Attributes:
        key_size: Wire size of a key in bytes (paper uses 8).
        value_size: Wire size of a value in bytes (paper uses 32 by default).
        track_kvs_index: Retired (always ``False``, not settable, never
            read). It stays only because this config's repr is part of the
            derived seed of every grid cell whose spec carries a
            ``HermesConfig``; dropping it would re-seed those cells.
        clock: Loosely-synchronized-clock parameters.
    """

    key_size: int = 8
    value_size: int = 32
    track_kvs_index: bool = field(default=False, init=False)
    clock: ClockConfig = field(default_factory=ClockConfig)

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` for invalid settings."""
        if self.key_size < 1:
            raise ConfigurationError("key_size must be >= 1")
        if self.value_size < 1:
            raise ConfigurationError("value_size must be >= 1")
        self.clock.validate()


class ReplicaNode(NodeProcess):
    """Base class for protocol replicas.

    Subclasses must implement :meth:`handle_client_op` and :meth:`features`
    and fill :attr:`HANDLERS`, may name their store record class in
    :attr:`RECORD`, and may override :meth:`on_view_change` to react to
    membership reconfiguration.

    Every message reaches its handler through one exact-class table, built
    once per replica class (:meth:`dispatch_table`): membership messages go
    to the agent, transaction messages to the 2PC roles
    (:data:`repro.cluster.txn.TXN_HANDLERS`) and protocol messages to the
    subclass's :attr:`HANDLERS`. A class with no entry raises
    :class:`SimulationError`.
    """

    #: The protocol's entries of the dispatch table: message class ->
    #: ``handler(self, src, message)``.
    HANDLERS: Dict[type, Handler] = {}

    #: The class of this protocol's store records: the value plus whatever
    #: per-key state the protocol keeps, so a touched key is one object.
    RECORD: Type[ValueRecord] = ValueRecord

    def __init__(
        self,
        node_id: NodeId,
        sim: Simulator,
        network: Network,
        view: MembershipView,
        config: Optional[ReplicaConfig] = None,
        service_model: Optional[ServiceTimeModel] = None,
        clock: Optional[LooselySynchronizedClock] = None,
        host: Optional[NodeProcess] = None,
        shard_id: int = 0,
    ) -> None:
        super().__init__(node_id, sim, network, service_model, host=host, guest_tag=shard_id)
        #: Which key-range shard this replica serves (0 for unsharded
        #: deployments). Protocols use it to rotate placed roles (leader,
        #: sequencer, chain order) so shards spread their hotspots across
        #: the same nodes, as partitioned deployments do in practice.
        self.shard_id = shard_id
        self.config = config or ReplicaConfig()
        self.config.validate()
        self.view = view
        self.store = KeyValueStore(self.RECORD)
        if self._sanitizer is not None:
            # Cross-replica guard: while any handler runs, only this replica
            # (or its ShardHost, which reads guest stores during migration)
            # may touch this store. Off by default (``_sanitizer is None``).
            self._sanitizer.guard_store(self.store, owner=self, host=self.node)
        #: Where protocol traffic leaves: the replica itself (one packet per
        #: message, :meth:`flush` a no-op) or a Wings batcher.
        self.transport: Any = self
        self.clock = clock or LooselySynchronizedClock(self.config.clock)
        host_agent = getattr(host, "membership_agent", None) if host is not None else None
        if host_agent is not None:
            # Sharded cluster with the RM service: one per-node agent
            # (owned by the ShardHost) serves every co-hosted shard — the
            # host fans installed views out to each guest's _view_changed.
            self.membership_agent = host_agent
        else:
            self.membership_agent = MembershipAgent(
                node_id=node_id,
                initial_view=view,
                send=self._membership_send,
                local_clock=self.local_time,
                on_view_change=self._view_changed,
                static_lease=True,
            )
        #: Transaction-layer state (see :mod:`repro.cluster.txn`): the
        #: lock-master participant is created lazily on the first
        #: transaction message, so transaction-free runs pay only this
        #: ``None`` check per client operation.
        self._txn_participant = None
        #: Live-migration freeze filter (see
        #: :class:`repro.cluster.sharding.FrozenKeys`): non-``None`` only
        #: between a migration's ``preparing`` install and its flip, when
        #: client operations on the migrated keys park here. Runs that
        #: never migrate pay one ``None`` check per client operation.
        self._frozen = None
        #: Node re-join catch-up: ``True`` only between the re-admitting
        #: view's install and the completion of the join state snapshot,
        #: when client operations park in ``_catchup_parked`` (replication
        #: traffic flows normally). Set and cleared by the ShardHost; runs
        #: that never rejoin pay one ``False`` check per client operation.
        self._catching_up = False
        self._catchup_parked: List[Tuple[Operation, ClientCallback]] = []
        #: Counters exposed to the analysis layer.
        self.ops_completed = 0
        self.reads_served_locally = 0
        self.reads_served_remotely = 0
        # peers() cache, invalidated by view-object identity (views are
        # frozen dataclasses; every membership change installs a new one).
        self._peers_view: Optional[MembershipView] = None
        self._peers_cache: Tuple[NodeId, ...] = ()
        # role_ring() cache, invalidated the same way.
        self._ring_view: Optional[MembershipView] = None
        self._ring_cache: Tuple[NodeId, ...] = ()
        self._handlers = self.dispatch_table()
        # Flattened client-submit constants: the wire sizes of reads and
        # updates, and the bound handler a client operation runs under.
        self._read_size = self.config.key_size
        self._update_size = self.config.key_size + self.config.value_size
        self._bound_on_local_work = self.on_local_work

    # --------------------------------------------------------------- clocks
    def local_time(self) -> float:
        """This node's loosely synchronized clock reading."""
        return self.clock.read(self.sim.now)

    # --------------------------------------------------------------- faults
    def recover(self) -> None:
        """Recover the node; under an RM service the lease does not survive.

        Guests never reach this override (their ``recover`` delegates to
        the host, which applies the same rule to the shared agent).
        """
        super().recover()
        agent = self.membership_agent
        if agent.service_driven:
            agent.invalidate_lease()

    # ----------------------------------------------------------- client API
    def submit(self, op: Operation | Transaction, callback: Callable[..., None]) -> None:
        """Submit a client operation (or transaction) to this replica now.

        The operation is queued behind the node's CPU like any other work;
        the callback fires when the protocol completes the operation (a
        transaction's gets ``(txn, TxnOutcome)``).
        """
        self.submit_at(self.sim._now, op, callback)

    def submit_at(
        self, time: float, op: Operation | Transaction, callback: Callable[..., None]
    ) -> None:
        """Submit a client operation or transaction arriving at ``time``.

        Client sessions use it to model their request latency without one
        simulator event per hand-off. The request is priced by the CPU of
        :attr:`node` (a slowed host slows its guests' clients too) and by
        its wire size: the key, plus the value of an update; every member's
        for a transaction, which goes to this node's 2PC coordinator.
        """
        if op.__class__ is Transaction:
            from repro.cluster.txn import ops_wire_size  # repro.cluster imports this module

            config = self.config
            size = ops_wire_size(op.ops, config.key_size, config.value_size)
            handler = self._begin_txn
            args = (op, callback)
        else:
            size = self._read_size if op.op_type is OpType.READ else self._update_size
            handler = self._bound_on_local_work
            args = ((op, callback),)
        node = self.node
        # ServiceTimeModel.cost(size) of the node's current model, inlined.
        node._push_local(
            time, (node._sm_base + size * node._sm_per_byte) / node._sm_workers, handler, args
        )

    def _begin_txn(self, txn: Transaction, callback: Callable[..., None]) -> None:
        """Run a submitted transaction: hand it to this node's 2PC coordinator."""
        from repro.cluster.txn import coordinator_of  # repro.cluster imports this module

        coordinator_of(self).begin(txn, callback)

    # -------------------------------------------------- NodeProcess plumbing
    def on_local_work(self, work: Tuple[Operation, ClientCallback]) -> None:
        op, callback = work
        # Inlined is_operational(): the crashed property and the wrapper
        # call cost once per client operation.
        if self.node._crashed or not self.membership_agent.is_operational():
            self.complete(op, callback, OpStatus.UNAVAILABLE)
            return
        if self._catching_up:
            # Rejoined the view but still applying the join state snapshot:
            # serving now could read state from before the crash. Park; the
            # host drains the backlog when the catch-up completes.
            self._catchup_parked.append((op, callback))
            return
        participant = self._txn_participant
        if participant is not None and participant.locks and op.key in participant.locks:
            # The key is locked by an in-flight transaction at this lock
            # master: queue behind the lock (released when the transaction
            # commits or aborts) instead of interleaving with it.
            participant.park(op, callback)
            return
        frozen = self._frozen
        if frozen is not None and op.client_id >= 0 and frozen.matches(op.key):
            # The key is (or was) migrating to another shard: park until
            # the routing flip, or forward to the new owner after it.
            # Migration-machinery writes (negative client ids, e.g. the
            # copy injecting frozen values at the target) are pre-routed
            # by the migration itself and must bypass the filter — a
            # chained rebalance can otherwise bounce the copy back to the
            # frozen source and deadlock the round. ``admit`` may also
            # decline a stale forwarding tombstone whose key a later
            # migration routed back here; then serve the operation.
            if frozen.admit(op, callback):
                return
        self.handle_client_op(op, callback)
        transport = self.transport
        if transport is not self:
            transport.flush()

    def flush(self) -> None:
        """Nothing to put on the wire: without Wings every send leaves at once."""

    def on_message(self, src: NodeId, message: Any) -> None:
        transport = self.transport
        if transport is self:
            # One packet is one message, and flush is a no-op.
            self.dispatch(src, message)
            return
        # Wings: every message a packet carries goes through the same table,
        # then whatever the handlers batched leaves at once.
        for inner in transport.unpack(message):
            self.dispatch(src, inner)
        transport.flush()

    def dispatch(self, src: NodeId, message: Any) -> None:
        """Run the table handler registered for ``message``'s exact class."""
        handler = self._handlers.get(message.__class__)
        if handler is None:
            raise SimulationError(
                f"{type(self).__name__} {self.node_id} has no handler for "
                f"{type(message).__name__!r}"
            )
        handler(self, src, message)

    @classmethod
    def dispatch_table(cls) -> Dict[type, Handler]:
        """This class's message class -> handler table, built on first use.

        Entries are plain functions called as ``handler(replica, src,
        message)``, so every replica of a class shares one table.
        """
        table = cls.__dict__.get("_dispatch_table")
        if table is None:
            from repro.cluster.txn import TXN_HANDLERS  # repro.cluster imports this module

            table = cls._dispatch_table = {
                **dict.fromkeys(MembershipAgent.HANDLERS, ReplicaNode._on_membership_message),
                **TXN_HANDLERS,
                **cls.HANDLERS,
            }
        return table

    def _on_membership_message(self, src: NodeId, message: MembershipMessage) -> None:
        self.membership_agent.handle(src, message)
        self.view = self.membership_agent.view

    # ------------------------------------------------------------ overrides
    def handle_client_op(self, op: Operation, callback: ClientCallback) -> None:
        """Process a client operation. Subclasses implement."""
        raise NotImplementedError

    def on_view_change(self, view: MembershipView) -> None:
        """React to a membership reconfiguration. Default: no-op."""

    @classmethod
    def features(cls) -> ProtocolFeatures:
        """Describe this protocol's read/write features (Table 2)."""
        raise NotImplementedError

    # -------------------------------------------------------------- helpers
    def is_operational(self) -> bool:
        """Whether this replica may serve client requests right now."""
        return not self.crashed and self.membership_agent.is_operational()

    def complete(
        self,
        op: Operation,
        callback: ClientCallback,
        status: OpStatus,
        value: Value = None,
    ) -> None:
        """Finish a client operation and invoke its completion callback."""
        self.ops_completed += 1
        callback(op, status, value)

    def peers(self) -> Tuple[NodeId, ...]:
        """Live peers (all view members except this node), in sorted order."""
        view = self.view
        if view is not self._peers_view:
            self._peers_view = view
            self._peers_cache = tuple(sorted(view.others(self.node_id)))
        return self._peers_cache

    def role_ring(self, view: Optional[MembershipView] = None) -> Tuple[NodeId, ...]:
        """This replica's shard's role ring (:meth:`MembershipView.role_ring`).

        Protocols place their distinguished roles by ring position (ZAB's
        leader and Derecho's sequencer at ring[0], chains in ring order).

        Args:
            view: The view to compute the ring over; defaults to the
                replica's current view. ``on_view_change`` hooks pass their
                new view explicitly (the handler may run before
                ``self.view`` is reassigned).
        """
        if view is None:
            view = self.view
        if view is not self._ring_view:
            self._ring_view = view
            self._ring_cache = view.role_ring(self.shard_id)
        return self._ring_cache

    @property
    def pending_updates(self) -> int:
        """Updates this replica coordinates that must finish before a
        migration copies its keys (``ShardHost._check_frozen``).

        Only Hermes counts any. An ordered protocol reports none: with no
        retransmission, one lost message leaves an update awaited forever,
        and waiting on it would wedge every migration behind it; its copy
        ships the orderer's latest values instead (``latest_value``)."""
        return 0

    def committed_value(self, key: Key) -> Value:
        """The latest locally committed value of ``key``.

        State transfer (the live migration's copy phase) must read through
        this accessor, never ``store.get`` directly: protocols that keep
        committed state in per-key record state rather than the raw record
        value (CRAQ's version map) override it. Found by fault-schedule
        fuzzing — the copy used to ship CRAQ's preload-era record values,
        losing every write since startup.
        """
        return self.store.get(key)

    def latest_value(self, key: Key) -> Value:
        """The newest value of ``key`` this replica holds, committed or not:
        what a migration copy ships. Protocols that keep uncommitted
        versions apart from the committed one (CRAQ) override it."""
        return self.committed_value(key)

    def value_size_of(self, value: Value) -> int:
        """Wire size of a value (uses actual length for bytes/str payloads)."""
        if isinstance(value, (bytes, bytearray, str)):
            return len(value)
        return self.config.value_size

    def update_size_bytes(self, value: Value) -> int:
        """Wire size of an update payload (key + value)."""
        return self.config.key_size + self.value_size_of(value)

    # ------------------------------------------------------------ internals
    def _membership_send(self, dst: NodeId, message: MembershipMessage, size: int) -> None:
        self.send(dst, message, size)

    def _view_changed(self, view: MembershipView) -> None:
        self.view = view
        participant = self._txn_participant
        if participant is not None:
            # Lock-master recovery: abort transactions stranded by the view
            # change and release their locks *before* the protocol reacts,
            # so parked plain operations resume under the new view.
            participant.on_view_change(view)
        if self.node is self:
            # Unsharded replicas are their own node: run the per-node 2PC
            # coordinator hook here (ShardHost runs it once per node).
            coordinator = self._txn_coordinator
            if coordinator is not None:
                coordinator.on_view_change(view)
        self.on_view_change(view)

    # ---------------------------------------------------------- migration
    def freeze_keys(self, frozen) -> None:
        """Install a migration freeze filter.

        The filter parks migrated-key operations until the routing flip
        and forwards late arrivals to the new owner afterwards; the host
        removes or restores it on cancellation (see
        :class:`repro.cluster.sharding.FrozenKeys` and
        ``ShardHost._cancel_freeze``).
        """
        self._frozen = frozen


# Plain slotted dataclass compared by identity, not frozen: see the note in
# repro.core.messages (a frozen __init__ costs ~4x; the sanitizer and lint
# M-rules guard mutation instead).
@dataclass(eq=False, slots=True)
class ForwardedWrite:
    """A client update forwarded from the replica that took it to the orderer.

    ``seq`` numbers the origin's updates in the order it took them; it rides
    in the header, so the charged size stays :data:`HEADER_BYTES`.
    """

    key: Key
    value: Value
    origin: NodeId
    op_id: int
    seq: int
    size_bytes: int = HEADER_BYTES


#: Updates of one origin that may be recorded past a missing one before the
#: missing one counts as lost: the reorder window that bounds an
#: :class:`UpdateWindow`.
REORDER_WINDOW = 256


class UpdateWindow:
    """The numbers of one origin's updates that a replica has ordered or applied.

    Every number up to ``done`` is settled, and ``above`` holds the recorded
    numbers past a gap. An origin numbers its updates in the order it takes
    them, so a gap is an update that is late or lost. Once more than
    :data:`REORDER_WINDOW` numbers wait above a gap, the gap counts as lost
    and a late arrival is dropped like a lost message (the fabric may lose
    any message, so that is legal): memory is bounded by the reorder
    window, not by the number of writes.
    """

    __slots__ = ("done", "above")

    def __init__(self) -> None:
        self.done = 0
        self.above: Set[int] = set()

    def record(self, seq: int) -> bool:
        """Record update ``seq``; ``False`` if it was recorded before."""
        done, above = self.done, self.above
        if seq == done + 1 and not above:
            self.done = seq
            return True
        if seq <= done or seq in above:
            return False
        above.add(seq)
        if len(above) > REORDER_WINDOW:
            done = min(above) - 1
        while done + 1 in above:
            done += 1
            above.remove(done)
        self.done = done
        return True


class OrderedReplica(ReplicaNode):
    """A replica of a protocol that serializes every update at one orderer.

    The orderer is CR and CRAQ's chain head, ZAB's leader or Derecho's
    sequencer. A client update (RMWs included) stays in :attr:`_awaiting`
    at the replica that took it, its origin, and goes to the orderer: by a
    direct call when the origin is the orderer, otherwise as one
    :class:`ForwardedWrite`. A forward that reaches any replica other than
    the current orderer is dropped. The protocol orders the update in
    :meth:`_accept` and, once the update is durable at the origin, completes
    it there with :meth:`_complete_awaited`.

    The fabric may duplicate a forward (paper §3.4), and ordering one update
    twice would give it a second, newer place in the order. So the origin
    numbers its updates, and every replica records the numbers it orders or
    applies (:meth:`_record`, one :class:`UpdateWindow` per origin): the
    orderer drops a forward it has recorded, and a replica that a view
    change promotes to orderer already holds the number of every update it
    applied.

    Subclasses supply :attr:`orderer` and :meth:`_accept`; reads are served
    from the local store unless they override :meth:`_read` (a read that
    waits on a remote reply, as at CR's non-tail nodes, waits in
    :attr:`_awaiting` too: op ids are unique).
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: Client operations this replica took and has not completed yet,
        #: keyed by op id.
        self._awaiting: Dict[int, Tuple[Operation, ClientCallback]] = {}
        #: The number of the last update this replica took.
        self._update_seq = 0
        #: Origin -> the numbers of its updates ordered or applied here.
        self._recorded: Dict[NodeId, UpdateWindow] = {}

    @property
    def orderer(self) -> NodeId:
        """The node that currently orders updates. Subclasses implement."""
        raise NotImplementedError

    def _accept(self, key: Key, value: Value, origin: NodeId, op_id: int, seq: int) -> None:
        """Order update ``seq`` of ``origin`` at the orderer. Subclasses implement."""
        raise NotImplementedError

    def _record(self, origin: NodeId, seq: int) -> bool:
        """Record that update ``seq`` of ``origin`` is ordered or applied
        here; ``False`` if it already was."""
        window = self._recorded.get(origin)
        if window is None:
            window = self._recorded[origin] = UpdateWindow()
        return window.record(seq)

    def handle_client_op(self, op: Operation, callback: ClientCallback) -> None:
        """Serve reads with :meth:`_read`; hand updates to the orderer."""
        if op.op_type is OpType.READ:
            self._read(op, callback)
            return
        self._awaiting[op.op_id] = (op, callback)
        self._update_seq = seq = self._update_seq + 1
        orderer = self.orderer
        if orderer == self.node_id:
            self._record(self.node_id, seq)
            self._accept(op.key, op.payload, self.node_id, op.op_id, seq)
            return
        forward = ForwardedWrite(
            key=op.key, value=op.payload, origin=self.node_id, op_id=op.op_id, seq=seq
        )
        self.transport.send(
            orderer, forward, forward.size_bytes + self.update_size_bytes(op.payload)
        )

    def _read(self, op: Operation, callback: ClientCallback) -> None:
        """Serve a read from the local store."""
        self.reads_served_locally += 1
        self.complete(op, callback, OpStatus.OK, self.store.get(op.key, None))

    def _on_forwarded_write(self, src: NodeId, message: ForwardedWrite) -> None:
        if self.orderer == self.node_id and self._record(message.origin, message.seq):
            self._accept(message.key, message.value, message.origin, message.op_id, message.seq)

    def _complete_awaited(self, op_id: int, value: Value) -> None:
        """Complete the awaited client operation ``op_id``, if it is still here."""
        entry = self._awaiting.pop(op_id, None)
        if entry is not None:
            op, callback = entry
            self.complete(op, callback, OpStatus.OK, value)

    HANDLERS = {ForwardedWrite: _on_forwarded_write}


#: Registry mapping protocol names to replica classes, for the bench harness.
_PROTOCOLS: Dict[str, Type[ReplicaNode]] = {}


def register_protocol(name: str, cls: Type[ReplicaNode]) -> None:
    """Register a replica class under a short protocol name."""
    _PROTOCOLS[name] = cls


def protocol_registry() -> Dict[str, Type[ReplicaNode]]:
    """Return a copy of the protocol-name registry."""
    return dict(_PROTOCOLS)
