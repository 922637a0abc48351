"""Datacenter network model.

Models an RDMA-class datacenter fabric at the level of detail needed for
protocol comparison:

* one-way latency with jitter (microsecond scale by default),
* a per-byte serialization cost (bandwidth),
* message loss, duplication and reordering (paper §3.4 "Imperfect Links"),
* network partitions (paper §3.4 "Network Partitions"),
* crashed receivers silently dropping traffic.

A destination receives in one of two ways, fixed by how it registered:

* **Node processes** (:class:`~repro.sim.node.NodeProcess`, via
  :meth:`Network.register_process`): the arrival is pushed straight into
  the destination's inbox at send time, with the arrival timestamp
  precomputed. No simulator event is spent on the delivery itself; the node
  schedules exactly one event per message, at the time its handler runs
  (see :mod:`repro.sim.node`).
* **Plain callbacks** (:meth:`Network.register`): the network schedules one
  delivery event per message and invokes the callback when it fires.

Randomness is drawn through a bulk-refilled buffer of raw uniform draws, in
exactly the per-message order of calling ``random.Random.random()`` once
per decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple
import random

from repro.errors import ConfigurationError, SimulationError
from repro.sim.engine import Simulator
from repro.types import NodeId

#: Signature of a per-node receive callback: ``receiver(src, message, size_bytes)``.
ReceiveCallback = Callable[[NodeId, Any, int], None]

#: Fixed per-message header overhead in bytes (UD send + Wings header),
#: added to every message's payload size.
DEFAULT_HEADER_BYTES = 42

#: How many raw uniform draws are prefetched per refill of the RNG buffer.
_RNG_BUFFER_SIZE = 1024


@dataclass
class NetworkConfig:
    """Configuration of the network fabric.

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

    Plain receivers register a callback with :meth:`register`; node
    processes register themselves with :meth:`register_process`. Other
    components (protocol nodes, clients) send messages with :meth:`send`
    or :meth:`broadcast`.
    """

    def __init__(
        self,
        sim: Simulator,
        config: Optional[NetworkConfig] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.sim = sim
        self.config = config or NetworkConfig()
        self.config.validate()
        self._rng = rng or random.Random(0)
        self._receivers: Dict[NodeId, ReceiveCallback] = {}
        #: Destinations receiving through their inbox. Values are
        #: ``NodeProcess``-like objects exposing ``_push_arrival``.
        self._inbox_procs: Dict[NodeId, Any] = {}
        self._crashed: Set[NodeId] = set()
        self._partition: Optional[Partition] = None
        #: Gray per-link degradations, keyed by directed ``(src, dst)`` pair.
        #: Empty in healthy runs: the hot paths gate every lookup behind one
        #: dict-truthiness check and draw no extra randomness, so runs
        #: without link faults consume the RNG stream byte-identically.
        self._link_faults: Dict[Tuple[NodeId, NodeId], LinkFault] = {}
        self.stats = NetworkStats()
        # Bulk-prefetched raw uniform draws; every probabilistic decision
        # (jitter, loss, duplication, reordering) consumes from this buffer
        # in send order, so the stream is identical to calling
        # ``self._rng.random()`` once per decision.
        self._rand_buf: List[float] = []
        self._rand_idx = 0

    # ---------------------------------------------------------- registration
    def register(self, node_id: NodeId, receiver: ReceiveCallback) -> None:
        """Register the receive callback for ``node_id``.

        Re-registering replaces the previous callback (used when a node
        restarts after a crash). Registering a plain callback removes any
        inbox registration for the node.
        """
        self._receivers[node_id] = receiver
        self._inbox_procs.pop(node_id, None)

    def register_process(self, process: Any) -> None:
        """Register a node process for inbox delivery.

        ``process`` must expose ``node_id`` and ``_push_arrival``; it
        replaces any plain callback registered for the node.
        """
        self._inbox_procs[process.node_id] = process
        self._receivers.pop(process.node_id, None)

    def unregister(self, node_id: NodeId) -> None:
        """Remove a node from the network entirely."""
        self._receivers.pop(node_id, None)
        self._inbox_procs.pop(node_id, None)
        self._crashed.discard(node_id)

    def close(self) -> None:
        """Remove every registration (a registered process holds the network)."""
        self._receivers.clear()
        self._inbox_procs.clear()

    @property
    def node_ids(self) -> List[NodeId]:
        """All registered node ids, sorted."""
        return sorted(self._receivers.keys() | self._inbox_procs.keys())

    # --------------------------------------------------------------- faults
    def crash(self, node_id: NodeId) -> None:
        """Mark a node as crashed; all traffic to it is dropped."""
        self._crashed.add(node_id)

    def recover(self, node_id: NodeId) -> None:
        """Clear the crashed flag for a node."""
        self._crashed.discard(node_id)

    def set_partition(self, partition: Optional[Partition]) -> None:
        """Install (or clear, with ``None``) a network partition."""
        self._partition = partition

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
            return
        for pair in pairs:
            self._link_faults[pair] = fault

    def heal_link(self, src: NodeId, dst: NodeId, symmetric: bool = True) -> None:
        """Remove any gray fault from the ``src -> dst`` link."""
        self._link_faults.pop((src, dst), None)
        if symmetric:
            self._link_faults.pop((dst, src), None)

    def link_fault(self, src: NodeId, dst: NodeId) -> Optional[LinkFault]:
        """The gray fault currently installed on ``src -> dst``, if any."""
        return self._link_faults.get((src, dst))

    @property
    def partition(self) -> Optional[Partition]:
        """The currently installed partition, if any."""
        return self._partition

    # ---------------------------------------------------------------- random
    def _refill(self) -> float:
        """Refill the draw buffer and return the first draw."""
        rnd = self._rng.random
        self._rand_buf = [rnd() for _ in range(_RNG_BUFFER_SIZE)]
        self._rand_idx = 1
        return self._rand_buf[0]

    def _next_random(self) -> float:
        """The next raw uniform draw (buffered ``self._rng.random()``)."""
        idx = self._rand_idx
        buf = self._rand_buf
        if idx >= len(buf):
            return self._refill()
        self._rand_idx = idx + 1
        return buf[idx]

    # -------------------------------------------------------------- sending
    def send(
        self,
        src: NodeId,
        dst: NodeId,
        message: Any,
        size_bytes: int = 0,
    ) -> None:
        """Send ``message`` from ``src`` to ``dst``.

        The message is subject to loss, duplication, reordering, partitions
        and crash filtering per the network configuration. Delivery happens
        either by pushing into the destination's arrival inbox or by
        scheduling the destination's receive callback after the computed
        network latency.
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

        Each destination gets its own loss/jitter/duplication draws from the
        shared stream, in destination order; the configuration, stats and
        fault lookups are hoisted out of the loop. ``src`` itself is not
        filtered here.
        """
        cfg = self.config
        stats = self.stats
        partition = self._partition
        crashed_src = src in self._crashed
        total_bytes = size_bytes + DEFAULT_HEADER_BYTES
        loss_rate = cfg.loss_rate
        duplicate_rate = cfg.duplicate_rate
        reorder_rate = cfg.reorder_rate
        jitter = cfg.jitter
        base = cfg.base_latency + total_bytes * cfg.per_byte_latency
        sim = self.sim
        now = sim._now
        inbox_get = self._inbox_procs.get
        link_faults = self._link_faults
        # messages_sent/bytes_sent are charged per destination regardless of
        # drops, so they fold into one bulk update after the loop.
        sent = 0
        for dst in destinations:
            proc = inbox_get(dst)
            if proc is None and dst not in self._receivers:
                stats.messages_sent += sent
                stats.bytes_sent += sent * total_bytes
                raise SimulationError(
                    f"destination node {dst} is not registered on the network"
                )
            sent += 1
            if crashed_src:
                stats.messages_dropped_crashed += 1
                continue
            if partition is not None and not partition.allows(src, dst):
                stats.messages_dropped_partition += 1
                continue
            if loss_rate > 0.0 and self._next_random() < loss_rate:
                stats.messages_dropped_loss += 1
                continue
            # Gray per-link fault: one dict-truthiness check on healthy
            # runs; the extra loss draw happens only when the crossed link
            # actually carries a lossy fault, so fault-free RNG streams are
            # untouched.
            link_fault = link_faults.get((src, dst)) if link_faults else None
            if link_fault is not None and link_fault.loss_rate > 0.0:
                if self._next_random() < link_fault.loss_rate:
                    stats.messages_dropped_loss += 1
                    continue
            if jitter > 0.0:
                idx = self._rand_idx
                buf = self._rand_buf
                if idx >= len(buf):
                    draw = self._refill()
                else:
                    self._rand_idx = idx + 1
                    draw = buf[idx]
                latency = (
                    cfg.base_latency * (1.0 + (-jitter + (jitter - -jitter) * draw))
                    + total_bytes * cfg.per_byte_latency
                )
            else:
                latency = base
            if reorder_rate > 0.0 and self._next_random() < reorder_rate:
                latency += cfg.reorder_extra_latency * self._next_random()
            if link_fault is not None:
                latency *= link_fault.latency_factor
            if proc is not None:
                seq = sim._seq
                sim._seq = seq + 1
                proc._push_arrival(now + latency, seq, src, message, total_bytes)
            else:
                sim.schedule(latency, self._deliver, src, dst, message, total_bytes)
            if duplicate_rate > 0.0 and self._next_random() < duplicate_rate:
                stats.messages_duplicated += 1
                self._schedule_delivery(
                    proc,
                    src,
                    dst,
                    message,
                    total_bytes,
                    1.0 if link_fault is None else link_fault.latency_factor,
                )
            if (
                link_fault is not None
                and link_fault.duplicate_rate > 0.0
                and self._next_random() < link_fault.duplicate_rate
            ):
                stats.messages_duplicated += 1
                self._schedule_delivery(
                    proc,
                    src,
                    dst,
                    message,
                    total_bytes,
                    link_fault.latency_factor,
                    link_fault.duplicate_delay * self._next_random(),
                )
        stats.messages_sent += sent
        stats.bytes_sent += sent * total_bytes

    # -------------------------------------------------------------- internal
    def _schedule_delivery(
        self,
        proc: Any,
        src: NodeId,
        dst: NodeId,
        message: Any,
        total_bytes: int,
        latency_factor: float = 1.0,
        extra_delay: float = 0.0,
    ) -> None:
        latency = self._sample_latency(total_bytes)
        if latency_factor != 1.0:
            latency *= latency_factor
        if extra_delay > 0.0:
            latency += extra_delay
        if proc is not None:
            sim = self.sim
            seq = sim._seq
            sim._seq = seq + 1
            proc._push_arrival(sim._now + latency, seq, src, message, total_bytes)
        else:
            self.sim.schedule(latency, self._deliver, src, dst, message, total_bytes)

    def _sample_latency(self, total_bytes: int) -> float:
        cfg = self.config
        latency = cfg.base_latency
        jitter = cfg.jitter
        if jitter > 0.0:
            # Inlined random.Random.uniform(-j, j) over a buffered draw:
            # a + (b - a) * random() with a = -j, b = j, bit-identical to
            # the unbuffered call.
            latency *= 1.0 + (-jitter + (jitter - -jitter) * self._next_random())
        latency += total_bytes * cfg.per_byte_latency
        if cfg.reorder_rate > 0.0 and self._next_random() < cfg.reorder_rate:
            latency += cfg.reorder_extra_latency * self._next_random()
        return latency

    def _deliver(self, src: NodeId, dst: NodeId, message: Any, total_bytes: int) -> None:
        if dst in self._crashed:
            self.stats.messages_dropped_crashed += 1
            return
        receiver = self._receivers.get(dst)
        if receiver is None:
            self.stats.messages_dropped_crashed += 1
            return
        self.stats.messages_delivered += 1
        receiver(src, message, total_bytes)
