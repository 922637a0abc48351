"""Datacenter network model.

Models an RDMA-class datacenter fabric at the level of detail needed for
protocol comparison:

* one-way latency with jitter (microsecond scale by default),
* a per-byte serialization cost (bandwidth),
* message loss, duplication and reordering (paper §3.4 "Imperfect Links"),
* network partitions (paper §3.4 "Network Partitions"),
* gray per-link faults: slow, lossy or late-duplicating links.

A destination receives one way. At send time the network times every copy
of a message (the message and any duplicates) and pushes each one, with its
arrival timestamp precomputed, into the destination's ``_push_arrival``. A
:class:`~repro.sim.node.NodeProcess` (:meth:`Network.register_process`)
queues it in its inbox and spends one simulator event per message, at the
time its handler runs; crash state is the node's own, so a crashed node
drops what arrives while it is down (see :mod:`repro.sim.node`). A plain
callback (:meth:`Network.register`) sits behind a sink that runs it at the
arrival instant.

Every copy is timed by one block in :meth:`Network.send_multi`, which reads
one timing tuple: the latency terms of the configuration and a ``faulty``
flag. The network recomputes the tuple whenever its fault state changes (a
partition, a gray link fault, a new configuration); while ``faulty`` is
false, a copy runs none of the partition, loss, link-fault, reorder or
duplication tests, which draw nothing on a healthy fabric anyway.

Randomness comes from a C-level stream of raw uniform draws, refilled
``_RNG_BUFFER_SIZE`` at a time, in exactly the per-message order of calling
``random.Random.random()`` once per decision.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain, repeat, starmap
from types import SimpleNamespace
from typing import Any, Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple
import heapq
import random

from repro.errors import ConfigurationError, SimulationError
from repro.sim.engine import Simulator
from repro.types import NodeId

#: Fixed per-message header overhead in bytes (UD send + Wings header),
#: added to every message's payload size.
DEFAULT_HEADER_BYTES = 42

#: How many raw uniform draws are prefetched per refill of the RNG buffer.
_RNG_BUFFER_SIZE = 1024


@dataclass(frozen=True)
class NetworkConfig:
    """Configuration of the network fabric (immutable: a running network
    changes its settings through :meth:`Network.reconfigure`).

    Attributes:
        base_latency: Mean one-way propagation + switching latency in seconds.
            The paper's InfiniBand fabric has ~1-2 µs one-way latency.
        jitter: Fractional latency jitter; the actual latency of each message
            is drawn uniformly from ``base_latency * [1 - jitter, 1 + jitter]``.
        per_byte_latency: Serialization delay per payload byte (seconds/byte).
            56 Gb/s corresponds to roughly 1.4e-10 s/byte.
        loss_rate: Probability that a message is silently dropped.
        duplicate_rate: Probability that a delivered message is delivered a
            second time (with independent latency).
        reorder_rate: Probability that a message receives an extra random
            delay, causing it to be overtaken by later messages.
        reorder_extra_latency: Maximum extra delay applied to reordered
            messages (uniform in ``[0, reorder_extra_latency]``).
    """

    base_latency: float = 2e-6
    jitter: float = 0.1
    per_byte_latency: float = 1.4e-10
    loss_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    reorder_extra_latency: float = 20e-6

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` for invalid settings."""
        if self.base_latency < 0:
            raise ConfigurationError("base_latency must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError("jitter must be within [0, 1]")
        for name in ("loss_rate", "duplicate_rate", "reorder_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be a probability in [0, 1]")
        if self.per_byte_latency < 0:
            raise ConfigurationError("per_byte_latency must be non-negative")


@dataclass
class Partition:
    """A network partition: nodes in different groups cannot communicate.

    Attributes:
        groups: Disjoint sets of node ids. Nodes absent from every group are
            treated as a singleton group (isolated from all listed groups and
            from each other).
    """

    groups: Tuple[FrozenSet[NodeId], ...]

    @classmethod
    def split(cls, *groups: Iterable[NodeId]) -> "Partition":
        """Build a partition from one iterable of node ids per group."""
        frozen = tuple(frozenset(g) for g in groups)
        seen: Set[NodeId] = set()
        for group in frozen:
            overlap = seen & group
            if overlap:
                raise ConfigurationError(f"partition groups overlap on nodes {sorted(overlap)}")
            seen |= group
        return cls(groups=frozen)

    def allows(self, src: NodeId, dst: NodeId) -> bool:
        """Whether a message from ``src`` to ``dst`` can cross this partition."""
        src_group = self._group_of(src)
        dst_group = self._group_of(dst)
        if src_group is None or dst_group is None:
            # A node not listed in any group is isolated.
            return src == dst
        return src_group is dst_group

    def _group_of(self, node: NodeId) -> Optional[FrozenSet[NodeId]]:
        for group in self.groups:
            if node in group:
                return group
        return None


@dataclass(slots=True)
class LinkFault:
    """A gray failure of one directed link (slow and/or lossy, not dead).

    Gray failures are the degraded-but-alive conditions real fabrics
    exhibit (a flaky optic, an overloaded ToR port): the link keeps
    delivering, but slower and with extra loss, so timeouts and protocol
    assumptions are stressed without any crash notification firing.

    Attributes:
        latency_factor: Multiplier applied to the sampled one-way latency
            of every message crossing the link (``>= 1`` slows it down).
        loss_rate: Extra, per-link probability that a message crossing the
            link is silently dropped (drawn after the global loss check).
        duplicate_rate: Extra, per-link probability that a delivered
            message is delivered a second time with independent latency —
            the flaky-NIC/retransmitting-switch gray failure that stale
            write-down guards exist to absorb.
        duplicate_delay: Upper bound of the extra delay (seconds) added to
            the duplicate copy, drawn uniformly per duplicate. A real
            retransmission fires after a timeout, so the dangerous
            duplicate is a *late* one — arriving after newer traffic for
            the same key has already been applied.
    """

    latency_factor: float = 1.0
    loss_rate: float = 0.0
    duplicate_rate: float = 0.0
    duplicate_delay: float = 0.0

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` for invalid settings."""
        if self.latency_factor <= 0:
            raise ConfigurationError("latency_factor must be positive")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ConfigurationError("link loss_rate must be a probability in [0, 1]")
        if not 0.0 <= self.duplicate_rate <= 1.0:
            raise ConfigurationError("link duplicate_rate must be a probability in [0, 1]")
        if self.duplicate_delay < 0.0:
            raise ConfigurationError("link duplicate_delay must be non-negative")


@dataclass(slots=True)
class NetworkStats:
    """Counters describing what the network has done so far.

    Conservation: once the simulation has drained,
    ``messages_sent + messages_duplicated == messages_delivered +
    messages_dropped_loss + messages_dropped_partition +
    messages_dropped_crashed`` (duplicates are extra deliveries that were
    never counted as sends). While messages are still in flight — or queued
    behind a destination CPU — the delivered count lags.
    """

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped_loss: int = 0
    messages_dropped_partition: int = 0
    messages_dropped_crashed: int = 0
    messages_duplicated: int = 0
    bytes_sent: int = 0


class Network:
    """The simulated network fabric connecting all nodes.

    Node processes register themselves with :meth:`register_process`; a
    plain callback registers with :meth:`register`. Other components
    (protocol nodes, clients) send messages with :meth:`send` or
    :meth:`broadcast`.
    """

    def __init__(
        self,
        sim: Simulator,
        config: Optional[NetworkConfig] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.sim = sim
        self._rng = rng or random.Random(0)
        #: Registered destinations: objects exposing ``_push_arrival``.
        self._destinations: Dict[NodeId, Any] = {}
        self._partition: Optional[Partition] = None
        #: Gray per-link degradations, keyed by directed ``(src, dst)`` pair.
        #: Any entry makes the fabric ``faulty``; the extra draws happen only
        #: on a link that carries a lossy or duplicating fault, so runs
        #: without link faults consume the RNG stream byte-identically.
        self._link_faults: Dict[Tuple[NodeId, NodeId], LinkFault] = {}
        self.stats = NetworkStats()
        #: The next raw uniform draw: every probabilistic decision (jitter,
        #: loss, duplication, reordering) takes one, in send order.
        self._next_random: Callable[[], float] = _draw_stream(self._rng).__next__
        self._config = config or NetworkConfig()
        self._config.validate()
        self._refresh_timing()

    # ---------------------------------------------------------- registration
    def register(self, node_id: NodeId, receiver: Callable[[NodeId, Any, int], None]) -> None:
        """Deliver what reaches ``node_id`` to ``receiver(src, message, size_bytes)``.

        The receiver sits behind a sink that takes the same arrival push as
        a node process and runs it at the arrival instant, under the seq the
        send allocated. It replaces any earlier registration of the node.
        """
        sim = self.sim
        stats = self.stats

        def deliver(copy: Tuple[NodeId, Any, int]) -> None:
            stats.messages_delivered += 1
            receiver(*copy)

        def push_arrival(arrival: float, seq: int, src: NodeId, message: Any, total_bytes: int) -> None:
            heapq.heappush(sim._heap, [arrival, seq, deliver, (src, message, total_bytes)])

        self.register_process(SimpleNamespace(node_id=node_id, _push_arrival=push_arrival))

    def register_process(self, process: Any) -> None:
        """Register a destination that exposes ``node_id`` and ``_push_arrival``.

        A :class:`~repro.sim.node.NodeProcess` registers itself this way. It
        replaces any earlier registration of the node.
        """
        self._destinations[process.node_id] = process

    def close(self) -> None:
        """Remove every registration (a registered process holds the network)."""
        self._destinations.clear()

    # --------------------------------------------------------------- faults
    def reconfigure(self, **changes: Any) -> None:
        """Change configuration fields, e.g. ``reconfigure(loss_rate=0.5)``.

        The configuration is immutable and may be shared (a cluster's
        :class:`~repro.cluster.cluster.ClusterConfig` hands the same object
        to every network it builds), so a change builds a new one.
        """
        config = replace(self._config, **changes)
        config.validate()
        self._config = config
        self._refresh_timing()

    @property
    def config(self) -> NetworkConfig:
        """The installed configuration (see :meth:`reconfigure`)."""
        return self._config

    def set_partition(self, partition: Optional[Partition]) -> None:
        """Install (or clear, with ``None``) a network partition."""
        self._partition = partition
        self._refresh_timing()

    def degrade_link(
        self,
        src: NodeId,
        dst: NodeId,
        latency_factor: float = 1.0,
        loss_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        duplicate_delay: float = 0.0,
        symmetric: bool = True,
    ) -> None:
        """Install a gray fault on the ``src -> dst`` link.

        A fault equal to the healthy defaults (factor 1.0, zero loss, zero
        duplication) clears the link (equivalent to :meth:`heal_link`).
        With ``symmetric`` the reverse direction is degraded identically —
        the common physical failure (a bad cable/port) hits both
        directions.
        """
        fault = LinkFault(
            latency_factor=latency_factor,
            loss_rate=loss_rate,
            duplicate_rate=duplicate_rate,
            duplicate_delay=duplicate_delay,
        )
        fault.validate()
        pairs = [(src, dst), (dst, src)] if symmetric else [(src, dst)]
        if fault == LinkFault():
            for pair in pairs:
                self._link_faults.pop(pair, None)
        else:
            for pair in pairs:
                self._link_faults[pair] = fault
        self._refresh_timing()

    def heal_link(self, src: NodeId, dst: NodeId, symmetric: bool = True) -> None:
        """Remove any gray fault from the ``src -> dst`` link."""
        self._link_faults.pop((src, dst), None)
        if symmetric:
            self._link_faults.pop((dst, src), None)
        self._refresh_timing()

    @property
    def partition(self) -> Optional[Partition]:
        """The currently installed partition, if any."""
        return self._partition

    def _refresh_timing(self) -> None:
        """Recompute the timing tuple :meth:`send_multi` unpacks per send.

        ``(base_latency, per_byte_latency, jitter, -jitter, jitter span,
        faulty)``: the jitter terms are those of ``random.uniform(-j, j)``,
        and ``faulty`` says whether any partition, loss, duplication,
        reordering or link fault can touch a copy.
        """
        cfg = self._config
        jitter = cfg.jitter
        faulty = (
            self._partition is not None
            or bool(self._link_faults)
            or cfg.loss_rate > 0.0
            or cfg.duplicate_rate > 0.0
            or cfg.reorder_rate > 0.0
        )
        self._timing = (cfg.base_latency, cfg.per_byte_latency, jitter, -jitter, jitter - -jitter, faulty)

    # -------------------------------------------------------------- sending
    def send(
        self,
        src: NodeId,
        dst: NodeId,
        message: Any,
        size_bytes: int = 0,
    ) -> None:
        """Send ``message`` from ``src`` to ``dst``.

        The message is subject to loss, duplication, reordering and
        partitions per the network configuration. Every copy that survives
        is pushed into the destination at send time, with its arrival time.
        """
        self.send_multi(src, (dst,), message, size_bytes)

    def broadcast(
        self,
        src: NodeId,
        destinations: Iterable[NodeId],
        message: Any,
        size_bytes: int = 0,
    ) -> None:
        """Send ``message`` from ``src`` to every node in ``destinations``.

        Matches the Wings software broadcast primitive: a series of unicasts
        sharing one payload (paper §4.2).
        """
        self.send_multi(src, [d for d in destinations if d != src], message, size_bytes)

    def send_multi(
        self,
        src: NodeId,
        destinations: Iterable[NodeId],
        message: Any,
        size_bytes: int = 0,
    ) -> None:
        """Send one payload to several destinations, in order.

        Each destination gets its own draws from the shared stream, in
        destination order; the configuration, stats and fault lookups are
        hoisted out of the loop. ``src`` itself is not filtered here, and a
        crashed node filters its own sends (see :mod:`repro.sim.node`).
        """
        base_latency, per_byte_latency, jitter, jitter_low, jitter_span, faulty = self._timing
        stats = self.stats
        total_bytes = size_bytes + DEFAULT_HEADER_BYTES
        # The per-copy latency's invariant terms, computed once with the
        # operations (and so the bits) of the inlined expression below.
        byte_latency = total_bytes * per_byte_latency
        base = base_latency + byte_latency
        draw = self._next_random
        sim = self.sim
        now = sim._now
        registry = self._destinations
        if faulty:
            cfg = self._config
            partition = self._partition
            loss_rate = cfg.loss_rate
            duplicate_rate = cfg.duplicate_rate
            reorder_rate = cfg.reorder_rate
            reorder_extra = cfg.reorder_extra_latency
            link_faults = self._link_faults
        # messages_sent/bytes_sent are charged per destination regardless of
        # drops, so they fold into one bulk update after the loop.
        sent = 0
        # A late link duplicate's extra delay: only a faulty fabric makes one.
        delay = 0.0
        for dst in destinations:
            try:
                proc = registry[dst]
            except KeyError:
                stats.messages_sent += sent
                stats.bytes_sent += sent * total_bytes
                raise SimulationError(
                    f"destination node {dst} is not registered on the network"
                ) from None
            sent += 1
            if faulty:
                if partition is not None and not partition.allows(src, dst):
                    stats.messages_dropped_partition += 1
                    continue
                if loss_rate > 0.0 and draw() < loss_rate:
                    stats.messages_dropped_loss += 1
                    continue
                # The extra loss draw happens only when the crossed link
                # carries a lossy fault.
                link_fault = link_faults.get((src, dst)) if link_faults else None
                if link_fault is not None and link_fault.loss_rate > 0.0:
                    if draw() < link_fault.loss_rate:
                        stats.messages_dropped_loss += 1
                        continue
                delay = 0.0
                # The next duplicate draw to make (see below).
                stage = 0
            # One pass per copy, each drawing jitter then reorder: the
            # message, then a fabric duplicate, then a late link duplicate
            # (its delay drawn first); a healthy fabric makes one pass.
            while True:
                if jitter > 0.0:
                    # Inlined random.Random.uniform(-j, j) over the draw:
                    # a + (b - a) * random() with a = -j, b = j.
                    latency = base_latency * (1.0 + (jitter_low + jitter_span * draw())) + byte_latency
                else:
                    latency = base
                if faulty:
                    if reorder_rate > 0.0 and draw() < reorder_rate:
                        latency += reorder_extra * draw()
                    if link_fault is not None:
                        latency *= link_fault.latency_factor
                seq = sim._seq
                sim._seq = seq + 1
                proc._push_arrival(now + (latency + delay), seq, src, message, total_bytes)
                if not faulty:
                    break
                if stage == 0:
                    stage = 1
                    if duplicate_rate > 0.0 and draw() < duplicate_rate:
                        stats.messages_duplicated += 1
                        continue
                if stage == 1 and link_fault is not None and link_fault.duplicate_rate > 0.0:
                    stage = 2
                    if draw() < link_fault.duplicate_rate:
                        stats.messages_duplicated += 1
                        delay = link_fault.duplicate_delay * draw()
                        continue
                break
        stats.messages_sent += sent
        stats.bytes_sent += sent * total_bytes


def _draw_stream(rng: random.Random) -> Iterator[float]:
    """``rng.random()`` draws, fetched ``_RNG_BUFFER_SIZE`` at a time.

    Only C-level iterators run per draw. The refill closure holds ``rng``
    alone: one that held the network would make a reference cycle of
    every network.
    """
    rnd = rng.random

    def refill() -> List[float]:
        return list(starmap(rnd, repeat((), _RNG_BUFFER_SIZE)))

    return chain.from_iterable(starmap(refill, repeat(())))
