"""Cluster assembly.

A :class:`Cluster` wires together everything a deployment needs: the
simulator, the network, one replica per (node, shard) running the selected
protocol, optionally the reliable-membership service, and the initial
dataset. The
benchmark harness, the examples and most integration tests go through this
class rather than assembling pieces by hand.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Type

from repro.cluster.sharding import ShardHost, ShardRouter
from repro.core.config import HermesConfig
from repro.core.replica import HermesReplica
from repro.errors import ConfigurationError
from repro.membership.service import MembershipConfig, MembershipService
from repro.membership.view import MembershipView
from repro.protocols.base import ReplicaConfig, ReplicaNode, protocol_registry
from repro.protocols.derecho import DerechoConfig, DerechoReplica
from repro.rpc import WingsTransport
from repro.sim.clock import LooselySynchronizedClock
from repro.sim.engine import Simulator
from repro.sim.hostgc import quiet_after_full_collection
from repro.sim.network import Network, NetworkConfig
from repro.sim.node import NodeProcess, ServiceTimeModel
from repro.sim.rng import SeededRNG
from repro.types import Key, NodeId, Value


@dataclass
class ClusterConfig:
    """Configuration of a replicated deployment.

    Attributes:
        protocol: Registry name of the protocol to deploy (``"hermes"``,
            ``"craq"``, ``"cr"``, ``"zab"``, ``"derecho"``).
        num_replicas: Replication degree (the paper evaluates 3, 5 and 7).
        shards: Number of key-range shards. Each shard is an independent
            protocol group over the same simulated nodes; shards on one
            node share its CPU and NIC budget like HermesKV worker threads
            share a machine (see :mod:`repro.cluster.sharding`). ``1``
            builds the classic unsharded deployment.
        seed: Root seed for every random stream in the deployment.
        network: Network fabric configuration.
        service_model: Per-node CPU model.
        replica: Shared replica configuration (key/value sizes, clocks).
        hermes: Hermes-specific configuration (ignored by other protocols).
        derecho: Derecho-specific configuration (ignored by other protocols).
        use_wings: Whether replicas batch protocol traffic through a Wings
            transport (:mod:`repro.rpc`) instead of sending one packet per
            message.
        run_membership_service: Whether to start the RM service (needed for
            failure/reconfiguration experiments; unnecessary overhead
            otherwise).
        membership: RM service configuration.
    """

    protocol: str = "hermes"
    num_replicas: int = 5
    shards: int = 1
    seed: int = 1
    network: NetworkConfig = field(default_factory=NetworkConfig)
    service_model: ServiceTimeModel = field(default_factory=ServiceTimeModel)
    replica: ReplicaConfig = field(default_factory=ReplicaConfig)
    hermes: HermesConfig = field(default_factory=HermesConfig)
    derecho: DerechoConfig = field(default_factory=DerechoConfig)
    use_wings: bool = False
    run_membership_service: bool = False
    membership: MembershipConfig = field(default_factory=MembershipConfig)

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` for invalid settings."""
        if self.num_replicas < 1:
            raise ConfigurationError("num_replicas must be >= 1")
        if self.shards < 1:
            raise ConfigurationError("shards must be >= 1")
        if self.membership.migrations:
            if self.shards < 2:
                raise ConfigurationError("shard migrations require shards >= 2")
            if not self.run_membership_service:
                raise ConfigurationError(
                    "shard migrations are driven by the membership service; "
                    "set run_membership_service=True"
                )
            for plan in self.membership.migrations:
                plan.migration.validate(self.shards)
        if self.membership.autoscale is not None:
            if self.shards < 2:
                raise ConfigurationError("autoscale requires shards >= 2")
            if not self.run_membership_service:
                raise ConfigurationError(
                    "autoscale is co-hosted with the membership service; "
                    "set run_membership_service=True"
                )
        if self.membership.rejoin:
            if not self.run_membership_service:
                raise ConfigurationError(
                    "rejoin requires the membership service; set run_membership_service=True"
                )
            if self.shards < 2:
                raise ConfigurationError("rejoin is run by the shard host; it requires shards >= 2")
        if self.protocol not in protocol_registry():
            raise ConfigurationError(
                f"unknown protocol {self.protocol!r}; known: {sorted(protocol_registry())}"
            )
        if self.membership.rejoin and not hasattr(
            protocol_registry()[self.protocol], "export_join_snapshot"
        ):
            raise ConfigurationError(
                f"rejoin needs a join state snapshot, which {self.protocol!r} does not export"
            )
        self.network.validate()
        self.service_model.validate()
        self.replica.validate()
        self.hermes.validate()
        self.derecho.validate()


def _close_cell(
    sim: Simulator,
    network: Network,
    nodes: Dict[NodeId, NodeProcess],
    shard_replicas: Dict[Tuple[NodeId, int], ReplicaNode],
    membership_service: Optional[MembershipService],
) -> None:
    """Break a dropped cluster's reference cycles.

    The replica skeleton is cyclic: pending events and network
    registrations hold the nodes, which hold the simulator and network, and
    every node process points at itself. Emptying the heap and the registry
    and closing each process leaves an acyclic remainder that reference
    counting frees as soon as the last session or record referencing it
    goes. O(processes + pending events).
    """
    sim.close()
    network.close()
    for process in (*nodes.values(), *shard_replicas.values(), membership_service):
        if process is not None:
            process.close()


class Cluster:
    """A running replicated deployment over the simulated substrate.

    The cluster owns its cell. Nothing it builds, and no client session,
    holds a strong reference back to it, so dropping the cluster finalizes
    the cell at once: every process is closed (see :func:`_close_cell`) and
    must not be used afterwards.
    """

    def __init__(self, config: Optional[ClusterConfig] = None, **overrides: Any) -> None:
        if config is None:
            config = ClusterConfig(**overrides)
        elif overrides:
            raise ConfigurationError("pass either a ClusterConfig or keyword overrides, not both")
        config.validate()
        self.config = config
        self.rng = SeededRNG(config.seed)
        self.sim = Simulator()
        self.network = Network(self.sim, config.network, rng=self.rng.stream("network"))
        self.view = MembershipView.initial(range(config.num_replicas))
        self.shards = config.shards
        self.shard_router = ShardRouter(config.shards)
        #: Node id -> the process that owns the node's CPU, inbox and crash
        #: flag: the node's replica at ``shards=1``, its shard host above.
        self.nodes: Dict[NodeId, NodeProcess] = {}
        #: (node id, shard) -> that shard's replica on the node.
        self.shard_replicas: Dict[Tuple[NodeId, int], ReplicaNode] = {}
        self._build_nodes()
        #: Per-node recovery hooks, weakly held (see :meth:`on_recover`).
        self._recover_callbacks: Dict[NodeId, List[weakref.WeakMethod]] = {}
        self.membership_service: Optional[MembershipService] = None
        self.autoscaler: Optional["Autoscaler"] = None
        if config.run_membership_service:
            self.membership_service = MembershipService(
                sim=self.sim,
                network=self.network,
                initial_view=self.view,
                config=config.membership,
            )
            self.membership_service.start()
            if config.membership.rejoin:
                for node in self.nodes.values():
                    node.enable_rejoin(config.membership.join_retry_interval)
            if config.membership.autoscale is not None:
                from repro.cluster.autoscale import Autoscaler

                self.autoscaler = Autoscaler(
                    cluster=self,
                    service=self.membership_service,
                    config=config.membership.autoscale,
                )
                self.autoscaler.start()
        # The cell's one teardown, run when the last reference to the cluster
        # goes. Its arguments must not reach the cluster, or it never would.
        weakref.finalize(
            self, _close_cell, self.sim, self.network, self.nodes, self.shard_replicas,
            self.membership_service,
        )

    # -------------------------------------------------------------- assembly
    def _replica_class(self) -> Type[ReplicaNode]:
        return protocol_registry()[self.config.protocol]

    def _make_replica(
        self,
        node_id: NodeId,
        clock: LooselySynchronizedClock,
        host: Optional[ShardHost] = None,
        shard_id: int = 0,
    ) -> ReplicaNode:
        """Construct one protocol replica (standalone node or shard guest)."""
        cls = self._replica_class()
        kwargs: Dict[str, Any] = {}
        if cls is HermesReplica:
            kwargs["hermes_config"] = self.config.hermes
        if cls is DerechoReplica:
            kwargs["derecho_config"] = self.config.derecho
        if host is not None:
            kwargs["host"] = host
            kwargs["shard_id"] = shard_id
        replica = cls(
            node_id,
            self.sim,
            self.network,
            self.view,
            config=self.config.replica,
            service_model=self.config.service_model,
            clock=clock,
            **kwargs,
        )
        if self.config.use_wings:
            replica.transport = WingsTransport(replica)
        return replica

    def _build_nodes(self) -> None:
        """Assemble every node process and its shard replicas.

        This is the one place that decides the node shape. At ``shards=1``
        each node is a standalone replica. Above that each node gets one
        :class:`ShardHost` (the CPU timeline and network endpoint) plus one
        guest replica per shard. Shards on a node share the host's CPU/NIC
        budget and the node's loosely synchronized clock — they are
        co-located partitions of one machine, not extra machines. With the
        RM service enabled the host also gets the node's single membership
        agent, shared by every guest.
        """
        config = self.config
        clock_rng = self.rng.stream("clocks")
        for node_id in range(config.num_replicas):
            host: Optional[ShardHost] = None
            if config.shards > 1:
                host = ShardHost(
                    node_id,
                    self.sim,
                    self.network,
                    config.service_model,
                    router=ShardRouter(config.shards),
                )
            clock = LooselySynchronizedClock(config.replica.clock, rng=clock_rng)
            if host is not None and config.run_membership_service:
                host.enable_membership(
                    self.view,
                    local_clock=(lambda c=clock, sim=self.sim: c.read(sim.now)),
                    service_node_id=config.membership.service_node_id,
                )
            for shard in range(config.shards):
                replica = self._make_replica(node_id, clock, host=host, shard_id=shard)
                if host is not None:
                    host.attach(replica)
                elif config.run_membership_service:
                    replica.membership_agent.service_driven = True
                self.shard_replicas[(node_id, shard)] = replica
            self.nodes[node_id] = replica if host is None else host

    # --------------------------------------------------------------- access
    @property
    def node_ids(self) -> List[NodeId]:
        """All replica node ids."""
        return sorted(self.nodes)

    def replica(self, node_id: NodeId, shard: int = 0) -> ReplicaNode:
        """The replica serving ``shard`` on ``node_id``."""
        return self.shard_replicas[(node_id, shard)]

    def replicas_on(self, node_id: NodeId) -> List[ReplicaNode]:
        """All shard replicas hosted on ``node_id``, in shard order."""
        return [self.shard_replicas[(node_id, shard)] for shard in range(self.shards)]

    @property
    def migration_records(self):
        """Completed live migrations (see the RM service's records)."""
        if self.membership_service is None:
            return []
        return self.membership_service.migration_records

    def all_replicas(self) -> Iterator[ReplicaNode]:
        """Every protocol replica instance (``nodes x shards``)."""
        return iter(self.shard_replicas.values())

    def live_replicas(self) -> List[ReplicaNode]:
        """Replicas that have not crashed."""
        return [r for r in self.all_replicas() if not r.crashed]

    # -------------------------------------------------------------- dataset
    def preload(self, dataset: Dict[Key, Value]) -> None:
        """Install the initial dataset on every replica (no replication traffic).

        The dataset is partitioned by shard: each key is preloaded only into
        the replicas of the shard that owns it, so per-shard stores hold
        disjoint key ranges. Each partition is handed to every replica of
        its shard as their shared read-only base; a replica creates its own
        record for a key only when it first writes it (see
        :mod:`repro.kvs.store`).

        The cluster takes ownership of ``dataset``, whatever the shard
        count: the caller may read it but must not mutate it after the call
        (as with :meth:`KeyValueStore.load`). A one-shard deployment's
        partition is ``dataset`` itself, not a copy.
        """
        if self.shards == 1:
            partitions: List[Dict[Key, Value]] = [dataset]
        else:
            shard_of = self.shard_router.shard_of
            partitions = [{} for _ in range(self.shards)]
            for key, value in dataset.items():
                partitions[shard_of(key)][key] = value
        for (_, shard), replica in self.shard_replicas.items():
            replica.store.load(partitions[shard])

    # --------------------------------------------------------------- faults
    def crash(self, node_id: NodeId) -> None:
        """Crash a node immediately (all of its shard replicas with it)."""
        self.nodes[node_id].crash()

    def recover(self, node_id: NodeId) -> None:
        """Clear a node's crashed flag (all of its shard replicas with it)."""
        self.nodes[node_id].recover()
        for hook in self._recover_callbacks.get(node_id, ()):
            callback = hook()
            if callback is not None:
                callback(node_id)

    def on_recover(self, node_id: NodeId, callback: Callable[[NodeId], None]) -> None:
        """Register ``callback(node_id)`` to run whenever ``node_id`` recovers.

        Used by client sessions to resume submissions to a node they had
        been skipping while it was crashed. Callbacks run synchronously at
        the end of :meth:`recover`, in registration order.

        ``callback`` must be a bound method, and the cluster holds it only
        weakly: the cluster does not keep its owner alive, and a dropped
        owner's hook is skipped, so a session and its op records are freed
        when the caller drops them, not when it drops the cluster.
        """
        self._recover_callbacks.setdefault(node_id, []).append(weakref.WeakMethod(callback))

    def slow_node(self, node_id: NodeId, factor: float) -> None:
        """Scale CPU costs on ``node_id`` by ``factor`` (gray fault).

        Every shard replica on the node shares the node's CPU timeline, so
        all of them see the slowdown, mirroring a genuinely slow machine.
        ``factor=1.0`` restores full speed.
        """
        self.nodes[node_id].set_cpu_scale(factor)

    def node_clock(self, node_id: NodeId) -> LooselySynchronizedClock:
        """The loosely synchronized clock of ``node_id``.

        All shard replicas on a node share one clock, so shard 0's clock
        is the node's clock.
        """
        return self.shard_replicas[(node_id, 0)].clock

    def skew_clock(self, node_id: NodeId, delta: float, bound: Optional[float] = None) -> float:
        """Step ``node_id``'s clock offset by ``delta`` seconds (gray fault).

        With ``bound`` the resulting offset is clamped to ``[-bound,
        +bound]`` — the loosely-synchronized-clock assumption the paper's
        lease machinery relies on (§2.4). Returns the new offset.
        """
        return self.node_clock(node_id).nudge(delta, bound=bound)

    # --------------------------------------------------------------- running
    # Both wrap the simulator call in the host GC governor: a run's retained
    # records are cycle-free, so full collections after the first only re-walk
    # them (see repro.sim.hostgc).
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the simulation (thin wrapper over the simulator)."""
        with quiet_after_full_collection():
            return self.sim.run(until=until, max_events=max_events)

    def run_until(self, predicate, check_interval: float = 1e-4, max_time: Optional[float] = None) -> float:
        """Run until a predicate holds (thin wrapper over the simulator)."""
        with quiet_after_full_collection():
            return self.sim.run_until(
                predicate, check_interval=check_interval, max_time=max_time
            )

    # ------------------------------------------------------------ statistics
    def total_stat(self, attribute: str) -> int:
        """Sum an integer statistic attribute across all (shard) replicas."""
        return sum(getattr(replica, attribute, 0) for replica in self.all_replicas())

    def txn_stat(self, attribute: str) -> int:
        """Sum a transaction-coordinator statistic across all nodes.

        Coordinators are created lazily on the node a transaction is first
        submitted to (see :mod:`repro.cluster.txn`); nodes that never
        coordinated a transaction contribute zero.
        """
        total = 0
        for node in self.nodes.values():
            coordinator = node._txn_coordinator
            if coordinator is not None:
                total += getattr(coordinator, attribute, 0)
        return total
