"""Key-range sharding: partitioned protocol groups in one cluster.

The paper's HermesKV is a multi-threaded KVS in which every thread owns a
partition of the key space and runs the replication protocol for its
partition independently (§6). This module reproduces that structure inside
the simulation: a cluster built with ``shards=S`` hosts ``S`` independent
protocol instances — each a complete replica group over the same simulated
nodes — and partitions the key space across them.

Two pieces implement it:

* :class:`ShardRouter` — the key→shard mapping (hash partitioning, as
  HermesKV's per-thread key partitioning), plus the *routing epoch*: a live
  shard migration re-routes a slice of one shard's range to another shard,
  and routers advance to the new mapping when the ``active`` shard map of a
  membership view reaches their node (:meth:`ShardRouter.apply`). Clients
  use their bound node's router to route each operation; the cluster uses
  the base (epoch-0) mapping to partition the preloaded dataset.
* :class:`ShardHost` — one per simulated node. It owns the node's CPU
  timeline, arrival inbox and network registration; the per-shard protocol
  replicas are constructed as *guests* of the host (see
  :mod:`repro.sim.node`), so all shards on a node share the node's CPU and
  NIC budget exactly like HermesKV worker threads share a machine. Shard
  traffic travels as ``(shard_id, inner)`` envelopes through the host's
  inbox; the envelope is routing metadata only and adds no wire bytes (a
  real deployment demultiplexes by key, which already determines the
  shard).

At ``shards=1`` the cluster builds no host: each node is a standalone
replica, which keeps the single-partition hot path free of envelopes.

Membership on sharded clusters
------------------------------

A single per-node membership agent (owned by the host, enabled by
:meth:`ShardHost.enable_membership`) serves every co-hosted shard: the RM
service pings nodes, the host answers, and an installed m-update fans out
to all shard replicas — each recomputes its rotated ``role_ring`` (leader,
sequencer, chain order, lock master) under the new view consistently,
because all guests share the host's agent and therefore its view object.

Live shard migration rides the same machinery (see
:mod:`repro.membership.service` for the orchestration): on a ``preparing``
shard map the host freezes the migrated keys at the source shard's replica
and reports quiescence; on :class:`~repro.membership.messages.MigrationCopy`
it copies the frozen values into the target shard through the target
protocol's normal replicated write path; on the ``active`` shard map it
flips its router and re-routes the parked operations to the target shard.
No operation can observe pre-migration state after the flip: post-flip
routes reach the target (which holds the copied state), and pre-flip
arrivals at the source are parked until the flip releases them to the
target (checked by :mod:`repro.verification.migration`).

Shards are independent protocol groups; *cross-shard* multi-key operations
are provided by the transaction layer on top (:mod:`repro.cluster.txn`).
Its messages ride the same ``(shard_id, inner)`` envelopes and dispatch to
the addressed guest replica like protocol traffic: a client transaction
hand-off arrives through shard 0's guest, which passes it to the host's
per-node 2PC coordinator.
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.membership.agent import MembershipAgent
from repro.membership.messages import (
    JoinCopied,
    JoinCopy,
    JoinRequest,
    JoinSnapshot,
    MembershipMessage,
    MigrationCopied,
    MigrationCopy,
    MigrationFrozen,
    MUpdate,
)
from repro.membership.view import (
    SHARD_MAP_ACTIVE,
    SHARD_MAP_CANCELLED,
    SHARD_MAP_PREPARING,
    MembershipView,
    ShardMap,
    ShardMigration,
    shard_and_sub,
)
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.node import NodeProcess, ServiceTimeModel
from repro.types import Key, NodeId, Operation, OpStatus


class ShardRouter:
    """Stable hash partitioning of the key space into ``num_shards`` shards.

    Integer keys (the library's fast path) map by modulo, which spreads the
    head of a zipfian distribution across shards the way hash partitioning
    does in real deployments; other key types hash through CRC-32 of their
    ``repr`` so the mapping is stable across processes and Python hash
    randomization (a requirement for deterministic process-parallel shard
    execution).

    Routing is **epoch-versioned**: :meth:`apply` advances the router to a
    view's ``active`` shard map, re-routing the migrated slice to its new
    owner. Epochs only move forward, so replayed or reordered view installs
    can never revert routing. With no migration installed the router is
    byte-identical to the pre-migration modulo/CRC mapping.
    """

    __slots__ = ("num_shards", "epoch", "_migrations")

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ConfigurationError("num_shards must be >= 1")
        self.num_shards = num_shards
        #: Routing epoch of the last applied shard map (0 = base mapping).
        self.epoch = 0
        #: Cumulative applied migrations, in application order (``None``
        #: until the first flip — keeps the common path to one check).
        self._migrations: Optional[Tuple[ShardMigration, ...]] = None

    def shard_of(self, key: Key) -> int:
        """The shard owning ``key`` under the router's current epoch."""
        # Inlined spelling of repro.membership.view.shard_and_sub (this is
        # the per-operation routing hot path; keep the arithmetic in sync).
        if type(key) is int:
            shard = key % self.num_shards
            sub = None
            if self._migrations is not None:
                sub = key // self.num_shards
        else:
            digest = zlib.crc32(repr(key).encode("utf-8"))
            shard = digest % self.num_shards
            sub = digest // self.num_shards
        migrations = self._migrations
        if migrations is not None:
            # Chain the rebalances in order: a key moved by one migration
            # may be the source slice of a later one.
            for migration in migrations:
                shard = migration.route(shard, sub)
        return shard

    def apply(self, shard_map: Optional[ShardMap]) -> bool:
        """Advance to a view's ``active`` shard map; returns whether routing moved."""
        if (
            shard_map is None
            or shard_map.phase != SHARD_MAP_ACTIVE
            or shard_map.epoch <= self.epoch
        ):
            return False
        self.epoch = shard_map.epoch
        self._migrations = shard_map.migrations or None
        return True


def migration_predicate(
    migration: ShardMigration,
    num_shards: int,
    prior: Optional[Tuple[ShardMigration, ...]],
):
    """The exact "does ``key`` move?" predicate of one migration.

    A migration's slice is defined over the *routed* mapping at freeze
    time — the base hash with every previously applied migration chained
    on top — so the frozen/copied key set is exactly the set the router
    re-routes when it later applies this migration as the chain's next
    step. Evaluating against the base mapping alone would diverge as soon
    as an earlier rebalance had moved keys into this migration's source
    shard.
    """
    route = migration.route

    def moves(key: Key) -> bool:
        shard, sub = shard_and_sub(key, num_shards)
        if prior:
            for earlier in prior:
                shard = earlier.route(shard, sub)
        return route(shard, sub) != shard

    return moves


class FrozenKeys:
    """Freeze filter installed on a source-shard replica during a migration.

    Client operations whose key lies in the migrated slice are parked here
    from the moment the ``preparing`` view installs until the ``active``
    view releases them to the target shard — the brief per-key
    unavailability window a live migration trades for atomicity.

    After the flip the filter switches to **forwarding** and stays
    installed: an operation that was routed to the source before its
    node's router flipped (it was in flight across the client request
    latency) is re-dispatched to the new owner instead of being applied to
    the abandoned source copy — the routing tombstone real migrations
    leave behind. A later migration from the same source shard chains on
    top (``prior``), so earlier tombstones keep forwarding.
    """

    __slots__ = ("migration", "moves", "parked", "forward", "prior")

    def __init__(
        self,
        migration: ShardMigration,
        moves,
        prior: Optional["FrozenKeys"] = None,
    ) -> None:
        self.migration = migration
        #: The migration's key predicate (see :func:`migration_predicate`).
        self.moves = moves
        self.prior = prior
        self.parked: List[Tuple[Operation, Any]] = []
        #: Post-flip redirect installed by the host; ``None`` while frozen.
        self.forward: Any = None

    @property
    def forwarding(self) -> bool:
        """Whether the flip happened (late arrivals redirect to the owner)."""
        return self.forward is not None

    def matches(self, key: Key) -> bool:
        """Whether operations on ``key`` belong to this (or a prior) slice."""
        if self.moves(key):
            return True
        prior = self.prior
        return prior is not None and prior.matches(key)

    def admit(self, op: Operation, callback: Any) -> bool:
        """Park (pre-flip) or redirect (post-flip) one migrated-key operation.

        Returns whether the operation was consumed. ``False`` means the
        key matched a forwarding tombstone but a *later* migration routed
        it back to this very shard — the caller must serve it locally (a
        stale tombstone is not allowed to bounce a key it no longer owns).
        """
        if self.moves(op.key):
            forward = self.forward
            if forward is not None:
                return forward(op, callback)
            self.parked.append((op, callback))
            return True
        # Matched through an earlier migration's tombstone.
        return self.prior.admit(op, callback)

    def begin_forwarding(self, forward: Any) -> List[Tuple[Operation, Any]]:
        """Flip to forwarding mode, returning the parked backlog to drain."""
        self.forward = forward
        parked, self.parked = self.parked, []
        return parked


class ShardHost(NodeProcess):
    """The per-node process hosting one replica of every shard.

    The host is what the network and the simulator see: one CPU timeline,
    one arrival inbox, one crash flag per simulated node. Incoming
    ``(shard_id, inner)`` envelopes — network messages and locally submitted
    client work alike — are unwrapped and dispatched to the owning shard's
    replica, whose handlers run under the host's CPU service model.
    Unenveloped membership traffic is handled by the host's own per-node
    membership agent (when enabled), which serves all co-hosted shards.
    """

    #: Delay between freeze-quiescence re-checks while in-flight writes on
    #: migrated keys drain (a few simulated write round-trips).
    _FREEZE_SETTLE = 0.5e-3

    def __init__(
        self,
        node_id: NodeId,
        sim: Simulator,
        network: Network,
        service_model: Optional[ServiceTimeModel] = None,
        router: Optional[ShardRouter] = None,
    ) -> None:
        super().__init__(node_id, sim, network, service_model)
        #: Shard id -> guest replica, indexed positionally (shard ids are
        #: dense 0..S-1); filled by :meth:`attach` during cluster assembly.
        self.shard_replicas: List[Any] = []
        #: This node's routing table (clients bound to the node and the
        #: node's 2PC coordinator route through it; flipped by migrations).
        self.router = router or ShardRouter(1)
        #: Per-node membership agent shared by every guest replica
        #: (``None`` until :meth:`enable_membership`).
        self.membership_agent: Optional[MembershipAgent] = None
        self._service_node_id: Optional[NodeId] = None
        self._shard_map_seen = 0
        # ---- node re-join (state transfer) host state; inert unless
        # enable_rejoin() was called.
        #: Retry period for the join request loop (``None`` = rejoin off).
        self._rejoin_retry: Optional[float] = None
        #: Whether this node wants (or is amid) a re-join.
        self._join_pending = False
        #: Whether the retry timer chain is currently armed (dies on crash).
        self._join_chain_running = False
        #: Whether client operations park while the snapshot catch-up runs.
        self._catching_up = False
        #: Epoch of the join attempt whose snapshots we are applying.
        self._join_copy_epoch = 0
        self._join_snapshots_applied = 0

    def attach(self, replica: Any) -> None:
        """Register the next shard's guest replica (in shard-id order)."""
        if replica.guest_tag != len(self.shard_replicas):
            raise ConfigurationError(
                f"shard replicas must attach in shard order; got shard "
                f"{replica.guest_tag}, expected {len(self.shard_replicas)}"
            )
        self.shard_replicas.append(replica)

    # ----------------------------------------------------------- membership
    def enable_membership(
        self,
        view: MembershipView,
        local_clock: Callable[[], float],
        service_node_id: NodeId,
    ) -> None:
        """Create the node's membership agent (before guests are attached).

        Guest replicas constructed afterwards share this agent (see
        ``ReplicaNode.__init__``), so one per-node agent/detector/Paxos
        stack serves every co-hosted shard.
        """
        self._service_node_id = service_node_id
        self.membership_agent = MembershipAgent(
            node_id=self.node_id,
            initial_view=view,
            send=self._membership_send,
            local_clock=local_clock,
            on_view_change=self._view_changed,
            static_lease=True,
        )
        self.membership_agent.service_driven = True

    def enable_rejoin(self, retry_interval: float) -> None:
        """Let this node re-enter the view after a restart (state transfer).

        Requires membership to be enabled and every co-hosted replica to
        export the snapshot hooks (``export_join_snapshot`` /
        ``apply_join_snapshot``); ``ClusterConfig.validate`` checks both.
        """
        if retry_interval <= 0:
            raise ConfigurationError("rejoin retry_interval must be positive")
        self._rejoin_retry = retry_interval

    def crash(self) -> None:
        super().crash()
        # Host timers died with the crash; recover() restarts the chain.
        self._join_chain_running = False

    def recover(self) -> None:
        """Recover the node; a restarted process holds no membership lease.

        With rejoin enabled the node additionally asks the RM service to
        re-admit it: a join request (retried while the service is busy or
        an attempt gets cancelled) followed by a per-shard state snapshot
        through which it catches up before serving clients again.
        """
        super().recover()
        agent = self.membership_agent
        if agent is not None:
            agent.invalidate_lease()
        if self._rejoin_retry is not None and self._service_node_id is not None:
            self._join_pending = True
            if not self._join_chain_running:
                self._join_chain_running = True
                self._send_join_request()

    # -------------------------------------------------------------- re-join
    def _send_join_request(self) -> None:
        request = JoinRequest(node_id=self.node_id)
        self.send(self._service_node_id, request, request.size_bytes)
        self.set_timer(self._rejoin_retry, self._join_retry_tick)

    def _join_retry_tick(self) -> None:
        """Drive the join request loop.

        While a join is wanted, re-send the request (the service ignores
        requests that collide with an in-flight reconfiguration, and a
        watchdog-cancelled attempt needs a fresh round) — unless the node
        turns out to be operational without ever having started a catch-up,
        which means it recovered before the service evicted it and there is
        nothing to join. Conversely, a node that *becomes* non-operational
        later (evicted despite having recovered, e.g. a suspicion latched
        just before its restart) restarts the join. The chain re-arms until
        the next crash.
        """
        if self._join_pending:
            if self.membership_agent.is_operational() and not self._catching_up:
                self._join_pending = False
            else:
                self._send_join_request()
                return  # _send_join_request re-armed the chain
        elif not self.membership_agent.is_operational():
            self._join_pending = True
            self._send_join_request()
            return
        self.set_timer(self._rejoin_retry, self._join_retry_tick)

    def _begin_catch_up(self) -> None:
        """The re-admitting view is installing: park client work until
        the snapshot catch-up completes (replication traffic — INVs, ACKs,
        VALs — flows normally; the joiner participates as a follower from
        the install onward, so it never misses a concurrent commit)."""
        self._catching_up = True
        for replica in self.shard_replicas:
            replica._catching_up = True

    def _export_join_snapshots(self, src: NodeId, message: JoinCopy) -> None:
        """Snapshot every co-hosted shard to the joining node (source side).

        Unlike the migration copy, the snapshot does not go through the
        replicated write path: the joiner already participates in
        replication for post-install writes, and re-injecting old values
        as fresh writes would race them. Entries carry each key's logical
        timestamp instead, and the joiner adopts a value only when it is
        newer than what it already holds.
        """
        joiner = message.joiner
        for shard_id, replica in enumerate(self.shard_replicas):
            entries = replica.export_join_snapshot()
            snapshot = JoinSnapshot(
                epoch_id=message.epoch_id, shard_id=shard_id, entries=entries
            )
            self.send(joiner, snapshot, snapshot.size_bytes)

    def _apply_join_snapshot(self, src: NodeId, message: JoinSnapshot) -> None:
        """Apply one shard's snapshot (joiner side); finish when all arrived."""
        if not self._join_pending:
            return  # stale snapshot from an attempt that already concluded
        if message.epoch_id < self._join_copy_epoch:
            return  # stale snapshot from a cancelled earlier attempt
        if message.epoch_id > self._join_copy_epoch:
            self._join_copy_epoch = message.epoch_id
            self._join_snapshots_applied = 0
        self.shard_replicas[message.shard_id].apply_join_snapshot(
            message.entries or []
        )
        self._join_snapshots_applied += 1
        if self._join_snapshots_applied < len(self.shard_replicas):
            return
        # Caught up on every shard: resume client service and ack the RM.
        self._catching_up = False
        self._join_pending = False
        for replica in self.shard_replicas:
            replica._catching_up = False
            parked = replica._catchup_parked
            if parked:
                replica._catchup_parked = []
                for op, callback in parked:
                    replica.submit_local((op, callback))
        ack = JoinCopied(epoch_id=message.epoch_id, joiner=self.node_id)
        self.send(self._service_node_id, ack, ack.size_bytes)

    def _membership_send(self, dst: NodeId, message: MembershipMessage, size: int) -> None:
        self.send(dst, message, size)

    def _view_changed(self, view: MembershipView) -> None:
        """Fan a newly installed view out to every co-hosted shard replica.

        Each guest updates its view, recomputes its rotated role ring and
        runs its protocol's ``on_view_change`` hook; the node's transaction
        coordinator then aborts transactions stranded by departed lock
        masters, and finally the shard map (if any) drives the migration
        state machine on this node.
        """
        for replica in self.shard_replicas:
            replica._view_changed(view)
        coordinator = self._txn_coordinator
        if coordinator is not None:
            coordinator.on_view_change(view)
        self._apply_shard_map(view)

    # ------------------------------------------------------------ migration
    def _apply_shard_map(self, view: MembershipView) -> None:
        shard_map = view.shard_map
        if shard_map is None or shard_map.epoch <= self._shard_map_seen:
            return
        self._shard_map_seen = shard_map.epoch
        if shard_map.phase == SHARD_MAP_PREPARING and shard_map.migrations:
            self._begin_freeze(shard_map.migrations[-1], view.epoch_id)
        elif shard_map.phase == SHARD_MAP_ACTIVE:
            if shard_map.migrations:
                self.router.apply(shard_map)
                self._release_frozen(shard_map.migrations[-1])
        elif shard_map.phase == SHARD_MAP_CANCELLED and shard_map.cancelled is not None:
            self._cancel_freeze(shard_map.cancelled)

    def _begin_freeze(self, migration: ShardMigration, epoch_id: int) -> None:
        source = self.shard_replicas[migration.source]
        # The slice is evaluated over the routed chain at freeze time (the
        # router has not applied this migration yet), and a previous
        # migration's forwarding tombstone, if any, stays chained beneath.
        moves = migration_predicate(
            migration, len(self.shard_replicas), self.router._migrations
        )
        source.freeze_keys(FrozenKeys(migration, moves, prior=source._frozen))
        self.set_timer(self._FREEZE_SETTLE, self._check_frozen, migration, epoch_id)

    def _cancel_freeze(self, migration: ShardMigration) -> None:
        """Abandoned before the flip: unfreeze; routing never moved.

        Parked operations resume at the source shard itself, and any
        earlier migration's forwarding tombstone is restored.
        """
        source = self.shard_replicas[migration.source]
        frozen = source._frozen
        if frozen is None or frozen.migration != migration or frozen.forwarding:
            return
        source._frozen = frozen.prior
        for op, callback in frozen.parked:
            source.submit_local((op, callback))

    def _check_frozen(self, migration: ShardMigration, epoch_id: int) -> None:
        """Report quiescence once in-flight work on the source drained.

        New operations on the migrated keys are parked by the freeze
        filter (and new transaction prepares on them vote NO); work that
        was already in flight when the freeze arrived finishes through the
        protocol normally. Quiescence therefore requires both

        * no coordinated updates pending at this node's source replica
          (``pending_updates``), and
        * no transaction locks held on migrated keys at this node's source
          participant — a transaction prepared *before* the freeze may
          still commit, and its writes must land before the copy reads the
          frozen values.

        The settle timer re-checks until both drain (the transaction
        timeouts bound the wait); protocols without an in-flight counter
        are covered by the settle delay itself.
        """
        source = self.shard_replicas[migration.source]
        frozen = source._frozen
        if frozen is None or frozen.migration != migration or frozen.forwarding:
            return  # cancelled (or already flipped) meanwhile; stop checking
        busy = bool(getattr(source, "pending_updates", 0))
        if not busy:
            participant = source._txn_participant
            if participant is not None and participant.locks:
                moves = frozen.moves
                busy = any(moves(key) for key in participant.locks)
        if busy:
            self.set_timer(self._FREEZE_SETTLE, self._check_frozen, migration, epoch_id)
            return
        ack = MigrationFrozen(epoch_id=epoch_id)
        self.send(self._service_node_id, ack, ack.size_bytes)

    def _start_copy(self, src: NodeId, message: MigrationCopy) -> None:
        """Copy the frozen keys into the target shard (copy-leader node only).

        Values are read locally from the quiescent source replica and
        written through the target shard's **normal replicated write path**
        — every target replica receives them like any client write, so the
        copy inherits the protocol's consistency and fault tolerance. The
        migrated slice is evaluated over the routed chain (the router has
        not applied this migration yet), matching the freeze filter and
        the router's eventual flip exactly.
        """
        migration = message.migration
        source = self.shard_replicas[migration.source]
        target = self.shard_replicas[migration.target]
        moves = migration_predicate(
            migration, len(self.shard_replicas), self.router._migrations
        )
        keys = sorted(key for key in source.store.keys() if moves(key))
        # committed_value, not store.get: chain protocols that track
        # committed state in per-key metadata (CRAQ) would otherwise ship
        # their preload-era record values.
        values = {key: source.committed_value(key) for key in keys}
        state = {
            "outstanding": len(keys),
            "epoch": message.epoch_id,
            "values": values,
            "failed": False,
        }
        if not keys:
            self._copy_finished(state)
            return
        key_size = target.config.key_size
        for key in keys:
            op = Operation.write(key, values[key], client_id=-1)
            target.submit_local(
                (
                    op,
                    lambda _op, status, _value, _state=state: self._copy_write_done(
                        _state, status
                    ),
                ),
                size_bytes=key_size + target.value_size_of(values[key]),
            )

    def _copy_write_done(self, state: Dict[str, Any], status: OpStatus) -> None:
        if status is not OpStatus.OK:
            # A copy write failed to replicate (e.g. the target group lost
            # its quorum mid-copy): never ack — flipping would expose a
            # target missing data. The service's migration watchdog
            # cancels the rebalance; routing stays on the source.
            state["failed"] = True
        state["outstanding"] -= 1
        if state["outstanding"] == 0 and not state["failed"]:
            self._copy_finished(state)

    def _copy_finished(self, state: Dict[str, Any]) -> None:
        ack = MigrationCopied(epoch_id=state["epoch"], values=state["values"])
        self.send(self._service_node_id, ack, ack.size_bytes)

    def _release_frozen(self, migration: ShardMigration) -> None:
        """Flip complete: re-route parked (and late-arriving) operations.

        The freeze filter stays installed in forwarding mode: operations
        that were routed to the source just before this node's router
        flipped are still in flight across the client request latency, and
        must reach the new owner rather than the abandoned source copy.
        """
        source = self.shard_replicas[migration.source]
        frozen = source._frozen
        if frozen is None:
            return
        shard_of = self.router.shard_of
        replicas = self.shard_replicas
        home = migration.source

        def forward(op: Operation, callback: Any) -> bool:
            owner = shard_of(op.key)
            if owner == home:
                # A later migration routed the key back to this shard: the
                # tombstone no longer applies — the caller serves it here.
                return False
            replicas[owner].submit_local((op, callback))
            return True

        for op, callback in frozen.begin_forwarding(forward):
            if not forward(op, callback):
                source.submit_local((op, callback))

    # ------------------------------------------------------------- dispatch
    def on_message(self, src: NodeId, message: Any) -> None:
        if type(message) is not tuple:
            # Unenveloped traffic is the node's own membership traffic.
            handler = self.UNENVELOPED.get(message.__class__)
            if handler is None:
                raise SimulationError(
                    f"sharded node {self.node_id} has no handler for the unenveloped "
                    f"message {type(message).__name__!r}"
                )
            handler(self, src, message)
            return
        shard, inner = message
        replica = self.shard_replicas[shard]
        san = self._sanitizer
        if san is None:
            replica.on_message(src, inner)
            return
        # Sanitizer: re-tag the delivery context with the guest replica so
        # the store guard attributes accesses to the right co-hosted shard.
        san.begin_delivery(replica)
        try:
            replica.on_message(src, inner)
        finally:
            san.end_delivery()

    def on_local_work(self, work: Any) -> None:
        shard, inner = work
        replica = self.shard_replicas[shard]
        san = self._sanitizer
        if san is None:
            replica.on_local_work(inner)
            return
        san.begin_delivery(replica)
        try:
            replica.on_local_work(inner)
        finally:
            san.end_delivery()

    def _on_agent_message(self, src: NodeId, message: MembershipMessage) -> None:
        agent = self.membership_agent
        if agent is None:
            raise SimulationError(f"sharded node {self.node_id} runs no membership agent")
        if type(message) is MUpdate and message.joined == self.node_id and self._join_pending:
            # This view re-admits us: park client work from the install
            # instant until the snapshots are applied.
            self._begin_catch_up()
        agent.handle(src, message)

    #: Unenveloped message class -> handler, matched by exact class: the
    #: migration and join transfers the node runs itself, and the agent's
    #: messages.
    UNENVELOPED = {
        **dict.fromkeys(MembershipAgent.HANDLERS, _on_agent_message),
        MigrationCopy: _start_copy,
        JoinCopy: _export_join_snapshots,
        JoinSnapshot: _apply_join_snapshot,
    }
