"""Failure injection.

Experiments that exercise fault tolerance (Figure 9, the recovery tests, the
linearizability-under-faults tests) describe failures declaratively as a list
of :class:`FailureEvent` records and hand them to a :class:`FailureInjector`,
which schedules them on the cluster's simulator.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from repro.cluster.cluster import Cluster
from repro.errors import ConfigurationError
from repro.sim.network import Partition
from repro.types import NodeId


class FailureKind(enum.Enum):
    """Kinds of injectable faults.

    The first five are the classic fail-stop/network faults; the last
    three are *gray* failures — degraded-but-alive conditions (a slow
    link, a slow machine, a stepped clock) that stress timeouts and
    protocol assumptions without any crash notification firing.
    """

    CRASH = "crash"
    RECOVER = "recover"
    PARTITION = "partition"
    HEAL_PARTITION = "heal_partition"
    SET_LOSS_RATE = "set_loss_rate"
    DEGRADE_LINK = "degrade_link"
    SLOW_NODE = "slow_node"
    CLOCK_SKEW = "clock_skew"


@dataclass
class FailureEvent:
    """One scheduled fault.

    Attributes:
        time: Absolute simulated time at which the fault is applied.
        kind: What happens.
        node: Target node for crash/recover/slow-node/clock-skew events,
            and one endpoint of the link for degrade-link events.
        groups: Partition groups for partition events.
        loss_rate: New message-loss probability for loss-rate events, or
            the extra per-link loss for degrade-link events.
        peer: The other endpoint of the link for degrade-link events.
        latency_factor: Per-link latency multiplier for degrade-link
            events (1.0 together with zero ``loss_rate`` and zero
            ``duplicate_rate`` heals the link).
        duplicate_rate: Extra per-link duplication probability for
            degrade-link events (flaky-NIC gray failure).
        duplicate_delay: Upper bound of the extra delay added to each
            duplicate copy — a retransmission fires after a timeout, so
            the dangerous duplicate is a late one.
        cpu_factor: CPU cost multiplier for slow-node events (1.0
            restores full speed).
        skew: Clock-offset step in seconds for clock-skew events.
        skew_bound: Optional clamp on the resulting clock offset.
    """

    time: float
    kind: FailureKind
    node: Optional[NodeId] = None
    groups: Optional[Sequence[Sequence[NodeId]]] = None
    loss_rate: Optional[float] = None
    peer: Optional[NodeId] = None
    latency_factor: Optional[float] = None
    duplicate_rate: Optional[float] = None
    duplicate_delay: Optional[float] = None
    cpu_factor: Optional[float] = None
    skew: Optional[float] = None
    skew_bound: Optional[float] = None

    @classmethod
    def crash(cls, time: float, node: NodeId) -> "FailureEvent":
        """Crash ``node`` at ``time``."""
        return cls(time=time, kind=FailureKind.CRASH, node=node)

    @classmethod
    def recover(cls, time: float, node: NodeId) -> "FailureEvent":
        """Recover ``node`` at ``time`` (clears the crashed flag)."""
        return cls(time=time, kind=FailureKind.RECOVER, node=node)

    @classmethod
    def partition(cls, time: float, *groups: Sequence[NodeId]) -> "FailureEvent":
        """Partition the network into the given groups at ``time``."""
        return cls(time=time, kind=FailureKind.PARTITION, groups=list(groups))

    @classmethod
    def heal(cls, time: float) -> "FailureEvent":
        """Remove any partition at ``time``."""
        return cls(time=time, kind=FailureKind.HEAL_PARTITION)

    @classmethod
    def message_loss(cls, time: float, loss_rate: float) -> "FailureEvent":
        """Change the network's message-loss probability at ``time``."""
        return cls(time=time, kind=FailureKind.SET_LOSS_RATE, loss_rate=loss_rate)

    @classmethod
    def slow_link(
        cls,
        time: float,
        node: NodeId,
        peer: NodeId,
        latency_factor: float = 1.0,
        loss_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        duplicate_delay: float = 0.0,
    ) -> "FailureEvent":
        """Degrade the ``node <-> peer`` link (both directions) at ``time``."""
        return cls(
            time=time,
            kind=FailureKind.DEGRADE_LINK,
            node=node,
            peer=peer,
            latency_factor=latency_factor,
            loss_rate=loss_rate,
            duplicate_rate=duplicate_rate,
            duplicate_delay=duplicate_delay,
        )

    @classmethod
    def heal_link(cls, time: float, node: NodeId, peer: NodeId) -> "FailureEvent":
        """Restore the ``node <-> peer`` link to full health at ``time``."""
        return cls.slow_link(time, node, peer, latency_factor=1.0, loss_rate=0.0)

    @classmethod
    def slow_node(cls, time: float, node: NodeId, cpu_factor: float) -> "FailureEvent":
        """Scale CPU costs on ``node`` by ``cpu_factor`` at ``time``."""
        return cls(time=time, kind=FailureKind.SLOW_NODE, node=node, cpu_factor=cpu_factor)

    @classmethod
    def restore_node_speed(cls, time: float, node: NodeId) -> "FailureEvent":
        """Restore ``node`` to full CPU speed at ``time``."""
        return cls.slow_node(time, node, cpu_factor=1.0)

    @classmethod
    def clock_skew(
        cls,
        time: float,
        node: NodeId,
        skew: float,
        bound: Optional[float] = None,
    ) -> "FailureEvent":
        """Step ``node``'s clock offset by ``skew`` seconds at ``time``.

        With ``bound`` the resulting offset is clamped to ``[-bound,
        +bound]`` (the bounded-skew assumption of loosely synchronized
        clocks).
        """
        return cls(
            time=time, kind=FailureKind.CLOCK_SKEW, node=node, skew=skew, skew_bound=bound
        )


class FailureInjector:
    """Schedules a list of failure events onto a cluster.

    The injector holds its cluster weakly: its armed events sit in the
    cluster's event heap, so a strong reference would be a cycle through
    the cluster, and dropping the cluster would not free its cell. The
    events can only fire while the cluster runs them, so it is alive then.
    """

    def __init__(self, cluster: Cluster, events: Iterable[FailureEvent]) -> None:
        self._cluster = weakref.ref(cluster)
        self.events: List[FailureEvent] = sorted(events, key=lambda e: e.time)
        self.applied: List[FailureEvent] = []

    def arm(self) -> None:
        """Schedule every event on the cluster's simulator."""
        sim = self._cluster().sim
        for event in self.events:
            sim.schedule_at(event.time, self._apply, event)

    def _apply(self, event: FailureEvent) -> None:
        cluster = self._cluster()
        if event.kind is FailureKind.CRASH:
            if event.node is None:
                raise ConfigurationError("crash event requires a node")
            cluster.crash(event.node)
        elif event.kind is FailureKind.RECOVER:
            if event.node is None:
                raise ConfigurationError("recover event requires a node")
            cluster.recover(event.node)
        elif event.kind is FailureKind.PARTITION:
            if not event.groups:
                raise ConfigurationError("partition event requires groups")
            cluster.network.set_partition(Partition.split(*event.groups))
        elif event.kind is FailureKind.HEAL_PARTITION:
            cluster.network.set_partition(None)
        elif event.kind is FailureKind.SET_LOSS_RATE:
            if event.loss_rate is None:
                raise ConfigurationError("loss-rate event requires loss_rate")
            cluster.network.config.loss_rate = event.loss_rate
        elif event.kind is FailureKind.DEGRADE_LINK:
            if event.node is None or event.peer is None:
                raise ConfigurationError("degrade-link event requires node and peer")
            cluster.network.degrade_link(
                event.node,
                event.peer,
                latency_factor=1.0 if event.latency_factor is None else event.latency_factor,
                loss_rate=0.0 if event.loss_rate is None else event.loss_rate,
                duplicate_rate=0.0 if event.duplicate_rate is None else event.duplicate_rate,
                duplicate_delay=0.0 if event.duplicate_delay is None else event.duplicate_delay,
            )
        elif event.kind is FailureKind.SLOW_NODE:
            if event.node is None or event.cpu_factor is None:
                raise ConfigurationError("slow-node event requires node and cpu_factor")
            cluster.slow_node(event.node, event.cpu_factor)
        elif event.kind is FailureKind.CLOCK_SKEW:
            if event.node is None or event.skew is None:
                raise ConfigurationError("clock-skew event requires node and skew")
            cluster.skew_clock(event.node, event.skew, bound=event.skew_bound)
        self.applied.append(event)
