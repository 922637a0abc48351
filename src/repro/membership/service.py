"""The reliable membership (RM) service process.

The service plays the role that the paper attributes to the datacenter's RM
infrastructure (§2.4, §6.6): it probes replicas, detects failures with a
conservative timeout, waits for the expiry of outstanding leases, decides the
new membership through a majority-based Paxos round among the surviving
replicas, and installs the resulting m-update on every live replica.

On sharded clusters the same per-node agent/detector/Paxos stack serves all
co-hosted shards: the service pings *nodes*, each node's
:class:`~repro.cluster.sharding.ShardHost` answers for every shard it hosts,
and an installed m-update fans out to every shard replica on the node.

The service also drives **live shard migrations**: a planned rebalance is a
pair of Paxos-decided view changes. The first installs a ``preparing``
shard map (nodes freeze the migrated keys and report quiescence via
:class:`~repro.membership.messages.MigrationFrozen`); once every node is
frozen the service instructs the source shard's lock-master node to copy the
keys into the target shard through its normal replicated write path
(:class:`~repro.membership.messages.MigrationCopy` /
:class:`~repro.membership.messages.MigrationCopied`); the second view change
flips the routing epoch (``active``), at which point nodes re-route and
release the parked operations. Progress requires the usual Paxos majority,
so the flip is as fault-tolerant as any other membership update.

The service is itself a :class:`~repro.sim.node.NodeProcess` so that its
messages traverse the simulated network and experience realistic delays —
this is what produces the unavailability window visible in Figure 9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.errors import ConfigurationError, SimulationError
from repro.membership.detector import FailureDetector, FailureDetectorConfig
from repro.membership.messages import (
    Accept,
    Accepted,
    JoinCopied,
    JoinCopy,
    JoinRequest,
    LeaseGrant,
    MembershipMessage,
    MigrationCopied,
    MigrationCopy,
    MigrationFrozen,
    MUpdate,
    Nack,
    Ping,
    Pong,
    Prepare,
    Promise,
)
from repro.membership.paxos import PaxosProposer
from repro.membership.view import (
    SHARD_MAP_ACTIVE,
    SHARD_MAP_CANCELLED,
    SHARD_MAP_PREPARING,
    MembershipView,
    ShardMap,
    ShardMigration,
)
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.node import NodeProcess, ServiceTimeModel
from repro.types import Key, NodeId, Value


@dataclass
class PlannedMigration:
    """A live shard migration the RM service starts at a simulated time.

    Attributes:
        at_time: Absolute simulated time to begin the rebalance.
        migration: What moves (see :class:`ShardMigration`).
    """

    at_time: float
    migration: ShardMigration


@dataclass
class MigrationRecord:
    """What one completed migration looked like (checker + figure input).

    Attributes:
        migration: The migrated slice.
        freeze_time: When the ``preparing`` view was installed (sent).
        frozen_time: When every node had reported its keys quiescent.
        copied_time: When the copy node reported the transfer applied.
        flip_time: When the ``active`` view was installed (sent).
        values: Frozen per-key values the copy transferred — the
            pre-migration state of the moved keys.
    """

    migration: ShardMigration
    freeze_time: float = 0.0
    frozen_time: float = 0.0
    copied_time: float = 0.0
    flip_time: float = 0.0
    values: Dict[Key, Value] = field(default_factory=dict)


@dataclass
class MembershipConfig:
    """Configuration of the RM service.

    Attributes:
        lease_duration: Validity period of granted leases.
        renewal_interval: How often leases are refreshed (must be shorter than
            the lease duration so live nodes never observe an expired lease).
        detection: Failure detector settings (ping interval / timeout).
        service_node_id: Node id used by the RM service on the network.
        migrations: Planned live shard migrations (sharded clusters only).
        rejoin: Whether restarted nodes re-enter the view via a join
            request + state-transfer snapshot. Needs a sharded cluster
            whose protocol exports the snapshot hooks (``ClusterConfig``
            rejects it otherwise). Off by default: pre-existing scenarios
            model a restarted node staying outside the view.
        join_timeout: Watchdog on the join snapshot handshake — a join
            whose copy has not completed within this window is cancelled
            (the joiner is evicted again; its host retries).
        join_retry_interval: How often a recovering node re-sends its
            :class:`~repro.membership.messages.JoinRequest` while the
            service is busy or a previous attempt was cancelled.
        autoscale: Elastic resharding policy configuration (see
            :class:`repro.cluster.autoscale.AutoscaleConfig`); ``None``
            disables the control loop.
    """

    lease_duration: float = 40e-3
    renewal_interval: float = 10e-3
    detection: FailureDetectorConfig = field(default_factory=FailureDetectorConfig)
    service_node_id: NodeId = 10_000
    migrations: List[PlannedMigration] = field(default_factory=list)
    rejoin: bool = False
    join_timeout: float = 60e-3
    join_retry_interval: float = 20e-3
    autoscale: Optional[object] = None

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` for invalid settings."""
        if self.lease_duration <= 0:
            raise ConfigurationError("lease_duration must be positive")
        if self.renewal_interval <= 0 or self.renewal_interval >= self.lease_duration:
            raise ConfigurationError("renewal_interval must be positive and < lease_duration")
        if self.join_timeout <= 0 or self.join_retry_interval <= 0:
            raise ConfigurationError("join timers must be positive")
        self.detection.validate()
        if self.autoscale is not None:
            self.autoscale.validate()


class MembershipService(NodeProcess):
    """Drives failure detection, lease renewal and membership reconfiguration."""

    #: Delay before retrying a migration start that collided with an
    #: in-flight reconfiguration.
    _MIGRATION_RETRY = 5e-3

    #: Watchdog on the freeze/copy handshake: a migration that has not
    #: flipped within this window is cancelled (a node likely crashed
    #: mid-handshake), so failure reconfiguration is never blocked
    #: indefinitely behind a stuck rebalance. Orders of magnitude above a
    #: healthy freeze+copy (~1 ms) and below the failure-detection window.
    _MIGRATION_TIMEOUT = 60e-3

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        initial_view: MembershipView,
        config: Optional[MembershipConfig] = None,
    ) -> None:
        self.config = config or MembershipConfig()
        self.config.validate()
        super().__init__(
            node_id=self.config.service_node_id,
            sim=sim,
            network=network,
            service_model=ServiceTimeModel(base=0.1e-6, per_byte=0.0, worker_threads=1),
        )
        self.view = initial_view
        self.detector = FailureDetector(
            self.config.detection, monitored=initial_view.members, now=sim.now
        )
        self._ping_sequence = 0
        self._last_lease_grant: Dict[NodeId, float] = {}
        self._reconfiguring = False
        self._pending_removals: Set[NodeId] = set()
        self._proposer: Optional[PaxosProposer] = None
        self._acceptors: frozenset = frozenset()
        self._accept_broadcast_done = False
        self._started = False
        self.reconfigurations = 0
        #: Times at which each epoch became installed (for Figure 9 analysis).
        self.reconfiguration_times: List[float] = []
        # ---- migration orchestration state.
        self._migrating: Optional[MigrationRecord] = None
        self._frozen_acks: Set[NodeId] = set()
        self.migrations_completed = 0
        self.migrations_cancelled = 0
        #: One record per completed migration, in completion order.
        self.migration_records: List[MigrationRecord] = []
        # ---- join (node re-entry) orchestration state.
        #: The node currently being re-admitted (``None`` when idle).
        self._joining: Optional[NodeId] = None
        #: Epoch of the installed view that re-admitted the joiner
        #: (0 until that view installs; guards stale snapshot acks).
        self._join_epoch = 0
        self.joins_completed = 0
        self.joins_cancelled = 0

    # ----------------------------------------------------------------- start
    def start(self) -> None:
        """Begin pinging, lease renewal, failure monitoring and migrations."""
        if self._started:
            return
        self._started = True
        self._grant_leases()
        self.set_timer(self.config.detection.ping_interval, self._ping_tick)
        self.set_timer(self.config.renewal_interval, self._lease_tick)
        for plan in self.config.migrations:
            self.set_timer(max(0.0, plan.at_time - self.sim.now), self._start_migration, plan)

    # ----------------------------------------------------------- NodeProcess
    def on_message(self, src: NodeId, message: MembershipMessage) -> None:
        """Handle replies from replicas (pongs, Paxos and migration acks) by
        exact class; a class with no handler raises ``SimulationError``."""
        handler = self.HANDLERS.get(message.__class__)
        if handler is None:
            raise SimulationError(
                f"membership service has no handler for {type(message).__name__!r}"
            )
        handler(self, src, message)

    def _on_pong(self, src: NodeId, message: Pong) -> None:
        self.detector.record_heartbeat(src, self.sim.now)

    # -------------------------------------------------------------- periodic
    def _ping_tick(self) -> None:
        self._ping_sequence += 1
        for node in sorted(self.view.members):
            self.send(node, Ping(sequence=self._ping_sequence), Ping().size_bytes)
        self._check_failures()
        self.set_timer(self.config.detection.ping_interval, self._ping_tick)

    def _lease_tick(self) -> None:
        if not self._reconfiguring:
            self._grant_leases()
        self.set_timer(self.config.renewal_interval, self._lease_tick)

    def _grant_leases(self) -> None:
        grant = LeaseGrant(view=self.view, duration=self.config.lease_duration)
        for node in sorted(self.view.members):
            self._last_lease_grant[node] = self.sim.now
            self.send(node, grant, grant.size_bytes)

    # ----------------------------------------------------- failure handling
    def _check_failures(self) -> None:
        if self._reconfiguring or self._migrating is not None or self._joining is not None:
            # One reconfiguration at a time; a crash during a migration or
            # join is picked up on the next ping tick after it completes
            # (the join watchdog bounds how long a stuck join can defer it).
            return
        suspected = self.detector.suspected(self.sim.now) & self.view.members
        if not suspected:
            return
        self._reconfiguring = True
        self._pending_removals = suspected
        # Reconfiguration may only proceed once every lease that could still
        # be held by a suspected (or any) node has expired (paper §2.4).
        latest_grant = max(self._last_lease_grant.get(n, 0.0) for n in self.view.members)
        lease_expiry = latest_grant + self.config.lease_duration
        delay = max(0.0, lease_expiry - self.sim.now)
        self.set_timer(delay, self._start_reconfiguration)

    def _start_reconfiguration(self) -> None:
        survivors = self.view.members - self._pending_removals
        if not survivors:
            # Total failure: nothing to reconfigure onto.
            self._reconfiguring = False
            return
        # Failure views carry the current shard map unchanged: routing does
        # not move when a node dies, only the membership does.
        new_view = MembershipView(
            epoch_id=self.view.epoch_id + 1,
            members=frozenset(survivors),
            shard_map=self.view.shard_map,
        )
        self._propose(new_view, acceptors=survivors)

    # --------------------------------------------------------------- Paxos
    def _propose(self, new_view: MembershipView, acceptors: Set[NodeId]) -> None:
        """Start a Paxos round deciding ``new_view`` among ``acceptors``.

        Proposals are serialized through ``_reconfiguring`` (cleared when
        the chosen view installs), so a failure reconfiguration can never
        clobber an in-flight migration round or vice versa.
        """
        self._reconfiguring = True
        self._acceptors = frozenset(acceptors)
        self._proposer = PaxosProposer(
            proposer_id=self.node_id,
            num_acceptors=len(self._acceptors),
            value=new_view,
        )
        self._accept_broadcast_done = False
        ballot = self._proposer.start_round()
        prepare = Prepare(ballot=ballot)
        for node in sorted(self._acceptors):
            self.send(node, prepare, prepare.size_bytes)

    def _on_promise(self, src: NodeId, message: Promise) -> None:
        if self._proposer is None:
            return
        quorum = self._proposer.on_promise(
            src, message.ballot, message.accepted_ballot, message.accepted_value
        )
        if quorum and self._proposer.chosen_value is None and not self._accept_broadcast_done:
            accept = Accept(ballot=self._proposer.ballot, value=self._proposer.value)
            for node in sorted(self._acceptors):
                self.send(node, accept, accept.size_bytes)
            self._accept_broadcast_done = True

    def _on_accepted(self, src: NodeId, message: Accepted) -> None:
        if self._proposer is None:
            return
        if self._proposer.on_accepted(src, message.ballot):
            self._install_chosen_view()

    def _on_nack(self, src: NodeId, message: Nack) -> None:
        if self._proposer is None or self._proposer.chosen_value is not None:
            return
        ballot = self._proposer.on_nack(message.promised_ballot)
        self._accept_broadcast_done = False
        prepare = Prepare(ballot=ballot)
        for node in sorted(self._acceptors):
            self.send(node, prepare, prepare.size_bytes)

    def _install_chosen_view(self) -> None:
        assert self._proposer is not None and self._proposer.chosen_value is not None
        view: MembershipView = self._proposer.chosen_value
        self.view = view
        for node in self._pending_removals:
            self.detector.remove(node)
        update = MUpdate(view=view, lease_duration=self.config.lease_duration)
        # The copy sent to a node this view re-admits carries the joined
        # marker so its host starts parking client work at install time
        # (``None`` on every other path — bytes and behavior unchanged).
        joiner = self._joining if self._join_epoch == 0 else None
        for node in sorted(view.members):
            self._last_lease_grant[node] = self.sim.now
            if node == joiner:
                marked = MUpdate(
                    view=view,
                    lease_duration=self.config.lease_duration,
                    joined=node,
                )
                self.send(node, marked, marked.size_bytes)
            else:
                self.send(node, update, update.size_bytes)
        self.reconfigurations += 1
        self.reconfiguration_times.append(self.sim.now)
        self._reconfiguring = False
        self._pending_removals = set()
        self._proposer = None
        self._accept_broadcast_done = False
        self._after_install(view)

    # ------------------------------------------------------------ migration
    def _start_migration(self, plan: PlannedMigration) -> None:
        if self._reconfiguring or self._migrating is not None or self._joining is not None:
            # A failure reconfiguration (or another migration/join) is in
            # flight: retry shortly. Migrations are rebalances — they can wait.
            self.set_timer(self._MIGRATION_RETRY, self._start_migration, plan)
            return
        self._begin_migration(plan.migration)

    def request_migration(self, migration: ShardMigration) -> bool:
        """Start a rebalance now if the service is idle (autoscaler entry).

        Unlike a :class:`PlannedMigration` this never queues a retry timer:
        the caller owns the pacing (the autoscale control loop re-plans on
        its next sampling tick against whatever chain is applied by then).
        Returns whether the migration round was started.
        """
        if self._reconfiguring or self._migrating is not None or self._joining is not None:
            return False
        self._begin_migration(migration)
        return True

    def _begin_migration(self, migration: ShardMigration) -> None:
        record = MigrationRecord(migration=migration)
        self._migrating = record
        self._frozen_acks = set()
        preparing = ShardMap(
            epoch=self.view.epoch_id + 1,
            migrations=self._applied_migrations() + (migration,),
            phase=SHARD_MAP_PREPARING,
        )
        new_view = MembershipView(
            epoch_id=self.view.epoch_id + 1,
            members=self.view.members,
            shard_map=preparing,
        )
        self.set_timer(self._MIGRATION_TIMEOUT, self._migration_watchdog, record)
        self._propose(new_view, acceptors=self.view.members)

    def _applied_migrations(self):
        """The cumulative migration chain already applied to routing."""
        shard_map = self.view.shard_map
        if shard_map is None:
            return ()
        migrations = shard_map.migrations
        if shard_map.phase == SHARD_MAP_PREPARING and migrations:
            # Should not occur (migrations are serialized), but never count
            # an in-flight migration as applied.
            return migrations[:-1]
        return migrations

    def _migration_watchdog(self, record: MigrationRecord) -> None:
        """Cancel a migration stuck in its freeze/copy handshake.

        A node that crashed between the ``preparing`` install and its
        freeze/copy ack would otherwise stall the migration forever —
        and with it all failure handling, which is serialized behind
        reconfigurations. Cancelling installs a ``cancelled`` shard map:
        nodes unfreeze (parked operations resume at the source shard,
        routing never moved), and the crash is detected and handled on
        the next ping tick. Once the copy has been acknowledged the
        ``active`` round is already in flight and is left to finish —
        cancelling then could race Paxos value adoption and flip routing
        while the service records a cancellation.
        """
        if self._migrating is not record or record.flip_time or record.copied_time:
            return  # completed (or past the point of no return) in time
        self.migrations_cancelled += 1
        self._migrating = None
        self._frozen_acks = set()
        chain = self._applied_migrations()
        if chain and chain[-1] == record.migration:
            chain = chain[:-1]
        cancelled = ShardMap(
            epoch=self.view.epoch_id + 1,
            migrations=chain,
            phase=SHARD_MAP_CANCELLED,
            cancelled=record.migration,
        )
        new_view = MembershipView(
            epoch_id=self.view.epoch_id + 1,
            members=self.view.members,
            shard_map=cancelled,
        )
        self._propose(new_view, acceptors=self.view.members)

    # ----------------------------------------------------------------- joins
    def _on_join_request(self, src: NodeId, message: JoinRequest) -> None:
        """A restarted node asks to re-enter the view.

        Ignored while any reconfiguration, migration or join is in flight
        (the joiner's host retries on a timer) and when the node is already
        a member. Otherwise the join is a Paxos-decided view change adding
        the node back, followed by a state-transfer snapshot (see
        :meth:`_after_install`).
        """
        joiner = message.node_id
        if self._reconfiguring or self._migrating is not None or self._joining is not None:
            return
        if joiner in self.view.members:
            return
        self._joining = joiner
        self._join_epoch = 0
        self._propose(self.view.with_added(joiner), acceptors=self.view.members)

    def _join_watchdog(self, joiner: NodeId, epoch: int) -> None:
        """Cancel a join whose snapshot handshake stalled.

        Fires when the copy (source export → joiner apply → ack) has not
        completed within ``join_timeout`` — e.g. the snapshot source
        crashed mid-copy. The joiner is evicted again so failure handling
        (serialized behind joins) resumes; the joiner's host keeps
        retrying and the next attempt picks a source from the then-current
        view, which no longer contains a crashed source.
        """
        if self._joining != joiner or self._join_epoch != epoch:
            return  # completed (or superseded) in time
        self.joins_cancelled += 1
        self._joining = None
        self._join_epoch = 0
        self._propose(self.view.without(joiner), acceptors=self.view.members - {joiner})

    def _on_join_copied(self, src: NodeId, message: JoinCopied) -> None:
        if self._joining != message.joiner or message.epoch_id != self._join_epoch:
            return  # stale ack from a cancelled attempt
        self._joining = None
        self._join_epoch = 0
        self.joins_completed += 1

    def _after_install(self, view: MembershipView) -> None:
        """Continue the migration/join state machines after a view installed."""
        joiner = self._joining
        if joiner is not None and self._join_epoch == 0:
            if joiner in view.members:
                # The view re-admitting the joiner is installed: stream it
                # a state snapshot from a deterministic live source, and
                # bound the handshake with a watchdog.
                self._join_epoch = view.epoch_id
                others = sorted(view.members - {joiner})
                source = others[joiner % len(others)]
                copy = JoinCopy(epoch_id=view.epoch_id, joiner=joiner)
                self.send(source, copy, copy.size_bytes)
                self.set_timer(
                    self.config.join_timeout, self._join_watchdog, joiner, view.epoch_id
                )
            else:
                # Paxos value adoption surfaced a different pending view:
                # drop this attempt (the joiner's host retries).
                self._joining = None
        record = self._migrating
        shard_map = view.shard_map
        if shard_map is None:
            return
        if record is None:
            if shard_map.phase == SHARD_MAP_PREPARING and shard_map.migrations:
                # A watchdog-cancelled migration's preparing view surfaced
                # anyway (Paxos value adoption from an earlier accept):
                # cancel it immediately so nodes do not stay frozen. The
                # watchdog already counted the cancellation.
                cancelled = ShardMap(
                    epoch=view.epoch_id + 1,
                    migrations=shard_map.migrations[:-1],
                    phase=SHARD_MAP_CANCELLED,
                    cancelled=shard_map.migrations[-1],
                )
                self._propose(
                    view.with_shard_map(cancelled), acceptors=view.members
                )
            return
        if shard_map.phase == SHARD_MAP_PREPARING:
            record.freeze_time = self.sim.now
        elif shard_map.phase == SHARD_MAP_ACTIVE:
            record.flip_time = self.sim.now
            self.migrations_completed += 1
            self.migration_records.append(record)
            self._migrating = None
            self._frozen_acks = set()

    def _on_migration_frozen(self, src: NodeId, message: MigrationFrozen) -> None:
        record = self._migrating
        if record is None or message.epoch_id != self.view.epoch_id:
            return
        self._frozen_acks.add(src)
        if not self.view.members.issubset(self._frozen_acks):
            return
        record.frozen_time = self.sim.now
        # The copy is performed by the source shard's lock-master node.
        copier = self.view.role_ring(record.migration.source)[0]
        copy = MigrationCopy(epoch_id=self.view.epoch_id, migration=record.migration)
        self.send(copier, copy, copy.size_bytes)

    def _on_migration_copied(self, src: NodeId, message: MigrationCopied) -> None:
        record = self._migrating
        if record is None or message.epoch_id != self.view.epoch_id:
            return
        if record.copied_time:
            return  # duplicate ack
        record.copied_time = self.sim.now
        record.values = dict(message.values or {})
        active = ShardMap(
            epoch=self.view.epoch_id + 1,
            migrations=self._applied_migrations() + (record.migration,),
            phase=SHARD_MAP_ACTIVE,
        )
        new_view = MembershipView(
            epoch_id=self.view.epoch_id + 1,
            members=self.view.members,
            shard_map=active,
        )
        self._propose(new_view, acceptors=self.view.members)

    #: Message class -> handler, matched by exact class (:meth:`on_message`).
    HANDLERS = {
        Pong: _on_pong,
        Promise: _on_promise,
        Accepted: _on_accepted,
        Nack: _on_nack,
        MigrationFrozen: _on_migration_frozen,
        MigrationCopied: _on_migration_copied,
        JoinRequest: _on_join_request,
        JoinCopied: _on_join_copied,
    }
