"""Simulated node processes with a CPU service-time model.

A :class:`NodeProcess` represents one server in the deployment. Incoming
messages (from the network or from co-located clients) are queued and
processed serially; each message occupies the node's CPU for a configurable
service time. This captures the queueing behaviour that produces the
throughput saturation and tail-latency effects central to the paper's
evaluation (e.g. the ZAB leader bottleneck and the CRAQ tail-node hotspot).

Multi-threaded worker models (the paper uses ~20 worker threads per machine)
are approximated by dividing per-message service time by ``worker_threads``,
i.e. an M/G/1 approximation of an M/G/k server. This preserves relative
protocol behaviour, which is the reproduction target.

Message delivery
----------------

Every inbox entry names the handler that runs it:
``[arrival, seq, service, is_network, handler, args]``, a fresh list per
entry. The network pushes entries straight into the destination's **inbox**
(a per-node heap ordered by arrival) at *send* time, through
:meth:`NodeProcess._push_arrival`. A network entry names that table
function with ``(process, src, message)`` when the process has a push table
(:attr:`NodeProcess._push_table`: a replica that is its own transport, or
a ``ShardHost`` for its own unenveloped traffic; never in sanitized runs)
with an entry for the message's class, so delivery costs no
``on_message``/``dispatch`` frames. Otherwise
:meth:`NodeProcess._network_entry` names the handler:
``on_message(src, message)``, or, at a
:class:`~repro.cluster.sharding.ShardHost`, the guest replica's table
function with ``(guest, src, inner)`` for a ``(shard, inner)`` envelope.
Local work (client
operations, locally submitted work items, a 2PC self-send) enters the same
inbox at submit time, through :meth:`NodeProcess._push_local` on the
process that owns the CPU — a process's :attr:`~NodeProcess.node`. The
node keeps exactly **one** outstanding simulator event — for the finish time
``max(arrival, cpu_free_at) + service`` of the earliest-arriving entry, on
the engine's message heap, with the head version as its one argument. When
it fires, the handler runs and the finish
event of the next entry is scheduled: one simulator event per message, and
the message heap stays small. Two rules fix the schedule:

1. *CPU charges.* ``charge_send``/``charge_cpu`` during a handler at time
   ``T`` must delay only work **arriving after** ``T``: work that arrived
   earlier was already queued behind the CPU when the charge happened.
   Charges are therefore recorded as ``(T, cost)`` pairs and folded into
   the CPU timeline only when computing the finish of the first entry
   whose arrival is at or after ``T``.

2. *Arrival order.* Inbox entries are ordered by ``(arrival, seq)``, the
   seq drawn from the engine's own counter when the arrival is created
   (send time for network messages, submit time for local work). The
   finish event reuses that seq as its tie-break, so same-instant finishes
   across nodes execute in arrival order.

Crash semantics: a crash discards all queued work and all outstanding
timers permanently — recovering does not resurrect work or timers from
before the crash. Messages still in flight at the crash are dropped at
their arrival times while the node stays down, and are processed normally
if the node has recovered by then. The crash flag lives here only: the
network keeps no crash state, and a crashed node sends nothing.

Guest mode (key-range sharding)
-------------------------------

A node process may be constructed as a **guest** of another node process
(the *host*), modelling several protocol instances — e.g. one replication
group per key-range shard, like HermesKV's per-thread partitions — sharing
one machine. A guest owns no CPU timeline, no inbox and no network
registration: every process's :attr:`~NodeProcess.node` names the process
whose CPU, inbox and crash flag it uses — itself, or a guest's host — so
every shard hosted on a node competes for the same CPU and NIC budget.
Local work needs no delegate: it is pushed into ``node``'s inbox under the
guest's own handler and priced by ``node``'s (possibly slowed) CPU. Crash
state lives on the host: crashing the host silences every guest at once.
The remaining delegates are installed as instance attributes only when a
host is given, so the unsharded hot path is untouched.

The host/guest delegation table (installed by
:meth:`NodeProcess._enable_guest_mode`):

====================  =======================================================
guest call            effect
====================  =======================================================
``send``              host ``send`` of ``(guest_tag, message)`` — same bytes
``broadcast``         host ``broadcast`` of ``(guest_tag, message)``
``charge_send``       host ``charge_send`` (no envelope; CPU is shared)
``charge_cpu``        host ``charge_cpu`` (no envelope; CPU is shared)
``set_timer``         host ``set_timer`` (cancelled when the host crashes)
``crash``/``recover`` host ``crash``/``recover`` (whole-machine semantics)
====================  =======================================================

``submit_local``/``submit_local_at`` and ``crashed`` are not delegates:
they act on ``node`` for every process alike.

Outgoing messages are tagged with the guest's ``guest_tag`` (the shard id)
as a ``(tag, inner)`` envelope. The envelope is routing metadata only (no
wire bytes): a real deployment demultiplexes incoming traffic by key, and
the key already determines the shard. Guests never register with the
network; a message addressed to the node arrives at the host, whose inbox
entry names the handler of ``shard_replicas[tag]`` for the inner message
(see :class:`repro.cluster.sharding.ShardHost`).
The transaction layer (:mod:`repro.cluster.txn`) rides the same
envelopes: its 2PC messages are sent through the guest's ``send`` and
arrive back through the host's dispatch, so cross-shard coordination
shares the node's CPU/NIC budget exactly like protocol traffic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.sanitize import get_sanitizer
from repro.errors import ConfigurationError, SimulationError
from repro.sim.engine import EventHandle, Simulator
from repro.sim.network import Network
from repro.types import NodeId

#: Inbox-entry slot indices: ``[arrival, seq, service, is_network, handler, args]``.
#: ``is_network`` marks entries whose processing counts toward the network's
#: ``messages_delivered`` statistic.
#: Under ``REPRO_SANITIZE=1`` an optional 7th slot holds the payload
#: fingerprint captured at enqueue; heap comparisons never reach it because
#: the seq in slot 1 is unique.
_ARRIVAL, _SEQ, _SERVICE, _IS_NET, _HANDLER, _HARGS = range(6)

#: Prune the fired-timer tracking set once it exceeds this size.
_TIMER_PRUNE_THRESHOLD = 256


@dataclass
class ServiceTimeModel:
    """Per-message CPU cost model for a node.

    Attributes:
        base: Fixed CPU time (seconds) to handle any message or local client
            request — decoding, KVS access, protocol bookkeeping.
        per_byte: Additional CPU time per payload byte (copying cost).
        send_overhead: Fixed CPU time to post one outgoing message (work
            request creation, doorbell). Charging this per send is what makes
            centralized senders (a ZAB leader, a Hermes coordinator) pay for
            their fan-out.
        worker_threads: Number of worker threads; effective service time is
            divided by this value (parallel workers approximation).
    """

    base: float = 0.25e-6
    per_byte: float = 0.4e-9
    send_overhead: float = 0.12e-6
    worker_threads: int = 20

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` for invalid settings."""
        if self.base < 0 or self.per_byte < 0 or self.send_overhead < 0:
            raise ConfigurationError("service times must be non-negative")
        if self.worker_threads < 1:
            raise ConfigurationError("worker_threads must be >= 1")

    def cost(self, size_bytes: int, weight: float = 1.0) -> float:
        """CPU time to process a message of ``size_bytes`` payload bytes.

        Args:
            size_bytes: Payload size of the message being handled.
            weight: Multiplier for messages that are inherently more expensive
                (e.g. a leader serializing a proposal).
        """
        raw = (self.base + size_bytes * self.per_byte) * weight
        return raw / self.worker_threads

    def send_cost(self, size_bytes: int) -> float:
        """CPU time to post one outgoing message of ``size_bytes`` bytes."""
        raw = self.send_overhead + size_bytes * self.per_byte * 0.5
        return raw / self.worker_threads


class NodeProcess:
    """Base class for simulated server processes.

    Subclasses override :meth:`on_message` (network traffic) and optionally
    :meth:`on_local_work` (locally submitted work items such as client
    requests routed to this node). Both run under the CPU queueing model.
    """

    def __init__(
        self,
        node_id: NodeId,
        sim: Simulator,
        network: Network,
        service_model: Optional[ServiceTimeModel] = None,
        host: Optional["NodeProcess"] = None,
        guest_tag: int = 0,
    ) -> None:
        self.node_id = node_id
        self.sim = sim
        self.network = network
        self.service_model = service_model or ServiceTimeModel()
        self.service_model.validate()
        self._cpu_free_at: float = 0.0
        self._crashed = False
        #: The process whose CPU, inbox and crash flag this one runs on:
        #: itself, or the host of a guest.
        self.node: NodeProcess = self if host is None else host
        self.guest_tag = guest_tag
        #: Per-node transaction coordinator (see :mod:`repro.cluster.txn`),
        #: created lazily on the first transaction submitted at this node.
        self._txn_coordinator = None
        #: Runtime sanitizer (``None`` unless ``REPRO_SANITIZE=1``): hot
        #: paths pay one is-None check, like the txn hooks in protocols.base.
        self._sanitizer = get_sanitizer()
        # Flattened service-model constants for the hot paths. The model
        # instance itself is never mutated (it may be shared across nodes);
        # :meth:`set_cpu_scale` swaps in a scaled private copy instead.
        self._base_service_model = self.service_model
        self._cpu_scale = 1.0
        model = self.service_model
        self._sm_base = model.base
        self._sm_per_byte = model.per_byte
        self._sm_send_overhead = model.send_overhead
        self._sm_workers = model.worker_threads
        # Inbox state (see module docstring).
        self._inbox: List[list] = []
        # The outstanding head event is identified by a version token: any
        # event carrying a stale version is ignored when it fires, which
        # makes "cancel + reschedule" a counter bump plus one bare push.
        self._head_version = 0
        self._head_scheduled = False
        self._drop_event: Optional[EventHandle] = None
        self._processing = False
        self._pending_charges: Deque[Tuple[float, float]] = deque()
        # Outstanding timers, cancelled wholesale on crash; pruned of fired
        # handles once they outnumber the adaptive watermark.
        self._timers: Set[EventHandle] = set()
        self._timer_prune_at = _TIMER_PRUNE_THRESHOLD
        #: Message class -> ``handler(process, src, message)`` that an
        #: arriving message's inbox entry names directly instead of
        #: :meth:`on_message` (see "Message delivery"); ``None``, as in every
        #: sanitized run, leaves each arrival to :meth:`_network_entry`. A
        #: replica sets it to its dispatch table while it is its own
        #: ``transport``: installing Wings clears it, because a Wings
        #: replica's ``on_message`` opens the packet and flushes what the
        #: handlers batched.
        self._push_table: Optional[Dict[type, Callable[..., None]]] = None
        # Hot-path binds, fixed for the node's lifetime: the network's one
        # send body, the engine's message heap (never replaced) and the head
        # event's callback.
        self._send_multi = network.send_multi
        self._message_heap = sim._heap
        self._head_callback = self._process_head
        # Stats object bind for the per-frame delivered count (never
        # reassigned on the network).
        self._net_stats = network.stats
        if host is None:
            network.register_process(self)
        else:
            self._enable_guest_mode(host, guest_tag)

    # ------------------------------------------------------------ properties
    @property
    def crashed(self) -> bool:
        """Whether this node is currently crashed (a guest mirrors its host)."""
        return self.node._crashed

    @property
    def queue_depth(self) -> int:
        """Inbox length: work awaiting the CPU plus messages still in flight
        to this node (they sit in the inbox from send time)."""
        return len(self._inbox)

    def close(self) -> None:
        """Drop all of this process's state; it must not be used afterwards.

        A process points at itself in many ways (its transport, its
        membership agent's callbacks, a guest's delegating methods,
        protocol callback tables), so rather than unpick
        each one this drops every instance attribute. Part of the teardown
        of a dropped :class:`~repro.cluster.cluster.Cluster`.
        """
        vars(self).clear()

    # --------------------------------------------------------------- faults
    def crash(self) -> None:
        """Crash the node: stop processing, drop queued work and timers.

        Queued work and armed timers are discarded permanently — they do
        not fire after :meth:`recover`. Messages in flight on the network
        are dropped at their arrival times for as long as the node stays
        crashed.
        """
        self._crashed = True
        for handle in self._timers:
            handle.cancel()
        self._timers.clear()
        self._timer_prune_at = _TIMER_PRUNE_THRESHOLD
        self._head_version += 1
        self._head_scheduled = False
        self._pending_charges.clear()
        if self._inbox:
            now = self.sim.now
            kept: List[list] = []
            delivered = 0
            for entry in self._inbox:
                if entry[_ARRIVAL] <= now:
                    # Arrived while the node was up: the network did
                    # deliver these; the queued work itself is lost to
                    # the crash.
                    delivered += entry[_IS_NET]
                else:
                    kept.append(entry)
            if delivered:
                self.network.stats.messages_delivered += delivered
            heapify(kept)
            self._inbox = kept
            self._ensure_drop_chain()

    def recover(self) -> None:
        """Clear the crashed flag (protocol-level recovery is separate)."""
        self._crashed = False
        self._cpu_free_at = self.sim.now
        self._pending_charges.clear()
        if self._drop_event is not None:
            self._drop_event.cancel()
            self._drop_event = None
        if self._inbox and not self._processing and not self._head_scheduled:
            self._schedule_head()

    @property
    def cpu_scale(self) -> float:
        """Current CPU slowdown factor (1.0 when healthy)."""
        return self._cpu_scale

    def set_cpu_scale(self, factor: float) -> None:
        """Scale every CPU cost on this node by ``factor`` (gray fault).

        A factor above 1.0 models a slow node (thermal throttling, a noisy
        neighbour); 1.0 restores full speed. The shared base model is never
        mutated — a scaled private copy replaces ``self.service_model`` so
        other nodes built from the same :class:`ServiceTimeModel` instance
        are unaffected. Work already charged keeps its original cost; only
        costs computed after the call see the new factor.
        """
        if factor <= 0:
            raise ConfigurationError("cpu_scale factor must be positive")
        self._cpu_scale = factor
        base = self._base_service_model
        if factor == 1.0:
            self.service_model = base
        else:
            self.service_model = ServiceTimeModel(
                base=base.base * factor,
                per_byte=base.per_byte * factor,
                send_overhead=base.send_overhead * factor,
                worker_threads=base.worker_threads,
            )
        model = self.service_model
        self._sm_base = model.base
        self._sm_per_byte = model.per_byte
        self._sm_send_overhead = model.send_overhead
        self._sm_workers = model.worker_threads

    # ------------------------------------------------------------- messaging
    def submit_local(self, work: Any, size_bytes: int = 0, weight: float = 1.0) -> None:
        """Submit a local work item (e.g. a client request) arriving now."""
        self.submit_local_at(self.sim._now, work, size_bytes, weight)

    def submit_local_at(
        self, time: float, work: Any, size_bytes: int = 0, weight: float = 1.0
    ) -> None:
        """Submit a local work item that reaches this node at a future time.

        The item enters the inbox of :attr:`node` directly, without spending
        a simulator event on the hand-off, priced by that node's CPU and run
        by this process's :meth:`on_local_work`. If the node crashes before
        ``time``, the item is discarded.
        """
        node = self.node
        service = node.service_model.cost(size_bytes, weight)
        node._push_local(time, service, self.on_local_work, (work,))

    def send(self, dst: NodeId, message: Any, size_bytes: int = 0) -> None:
        """Send a message to another node, charging send CPU (no-op when crashed)."""
        if self._crashed:
            return
        # Inlined charge_send (this runs once per message on the hot path);
        # arithmetic matches ServiceTimeModel.send_cost exactly.
        cost = (self._sm_send_overhead + size_bytes * self._sm_per_byte * 0.5) / self._sm_workers
        now = self.sim._now
        self._pending_charges.append((now, cost))
        if self._head_scheduled and not self._processing:
            if self._inbox[0][_ARRIVAL] >= now:
                self._schedule_head()
        self._send_multi(self.node_id, (dst,), message, size_bytes)

    def broadcast(self, destinations: Sequence[NodeId], message: Any, size_bytes: int = 0) -> None:
        """Broadcast a message to the given destinations (excluding self).

        Equivalent to one :meth:`send` per destination — including one send
        CPU charge each (the fan-out cost, paper §4.2) and per-destination
        latency draws — with the per-send bookkeeping hoisted.
        ``destinations`` is a sequence, not an iterator: it is read twice.
        """
        if self._crashed:
            return
        node_id = self.node_id
        targets = destinations
        if node_id in targets:
            targets = [dst for dst in destinations if dst != node_id]
        if not targets:
            return
        cost = (self._sm_send_overhead + size_bytes * self._sm_per_byte * 0.5) / self._sm_workers
        now = self.sim._now
        # Charges are immutable pairs, so every target shares one.
        self._pending_charges.extend([(now, cost)] * len(targets))
        if self._head_scheduled and not self._processing:
            if self._inbox[0][_ARRIVAL] >= now:
                self._schedule_head()
        self._send_multi(node_id, targets, message, size_bytes)

    def charge_send(self, size_bytes: int = 0) -> None:
        """Account the CPU cost of posting one outgoing message."""
        self._record_charge(self.service_model.send_cost(size_bytes))

    def charge_cpu(self, size_bytes: int = 0, weight: float = 1.0) -> None:
        """Account additional CPU work performed inside the current handler.

        Used by protocols whose work cannot be spread across worker threads —
        e.g. a ZAB leader's write ordering or a Derecho sequencer's round
        management runs on a single serialization thread, so it is charged at
        ``weight = worker_threads`` to undo the parallel-workers division.
        """
        self._record_charge(self.service_model.cost(size_bytes, weight))

    def set_timer(self, delay: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule a timer on this node; cancelled if the node crashes.

        Timers armed before a crash never fire, even after :meth:`recover`
        — a restarted process starts with a clean timer table.
        """
        # Simulator.schedule, inlined.
        if delay < 0:
            raise SimulationError(f"cannot schedule event in the past (delay={delay})")
        sim = self.sim
        handle = sim._push(sim._now + delay, self._timer_fired, (callback, args))
        timers = self._timers
        timers.add(handle)
        if len(timers) > self._timer_prune_at:
            # Drop handles that already fired or were cancelled individually.
            # The watermark doubles when most tracked timers are genuinely
            # live, so arming stays amortized O(1) even with thousands of
            # concurrently armed timers.
            self._timers = {h for h in timers if h.callback is not None}
            self._timer_prune_at = max(_TIMER_PRUNE_THRESHOLD, 2 * len(self._timers))
        return handle

    # ----------------------------------------------------------- guest mode
    def _enable_guest_mode(self, host: "NodeProcess", tag: int) -> None:
        """Rebind this process's resource methods to delegate to ``host``.

        Installed as instance attributes so the unhosted (common) case pays
        nothing. Outgoing messages are wrapped in a ``(tag, inner)`` envelope
        that the host's ``on_message`` unwraps (see
        :class:`repro.cluster.sharding.ShardHost`); CPU charges and timers
        need no envelope — they land on the shared machine directly — and
        local work needs no delegate: it is pushed into :attr:`node`'s inbox
        under this guest's own handler.
        """
        self.send = self._guest_send
        self.broadcast = self._guest_broadcast
        self.charge_send = host.charge_send
        self.charge_cpu = host.charge_cpu
        self.set_timer = host.set_timer
        self.crash = host.crash
        self.recover = host.recover

    def _guest_send(self, dst: NodeId, message: Any, size_bytes: int = 0) -> None:
        self.node.send(dst, (self.guest_tag, message), size_bytes)

    def _guest_broadcast(
        self, destinations: Sequence[NodeId], message: Any, size_bytes: int = 0
    ) -> None:
        self.node.broadcast(destinations, (self.guest_tag, message), size_bytes)

    # ---------------------------------------------------------------- hooks
    def on_message(self, src: NodeId, message: Any) -> None:
        """Handle a network message. Subclasses override."""
        raise NotImplementedError

    def on_local_work(self, work: Any) -> None:
        """Handle a locally submitted work item. Subclasses may override."""
        raise NotImplementedError

    # ------------------------------------------------------- inbox internals
    def _push_arrival(self, arrival: float, seq: int, src: NodeId, message: Any, total_bytes: int) -> None:
        """Network entry point (called at send time).

        ``seq`` is the engine sequence number the network allocated for
        this delivery (see "Arrival order" in the module docstring). Service
        arithmetic matches ``ServiceTimeModel.cost`` with ``weight=1.0``
        exactly. The entry names the handler from :attr:`_push_table` when
        there is one for the message's class, and the one
        :meth:`_network_entry` names otherwise.
        """
        service = (self._sm_base + total_bytes * self._sm_per_byte) / self._sm_workers
        table = self._push_table
        handler = None if table is None else table.get(message.__class__)
        if handler is not None:
            entry = [arrival, seq, service, 1, handler, (self, src, message)]
        else:
            entry = self._network_entry(arrival, seq, service, src, message)
        inbox = self._inbox
        heappush(inbox, entry)
        if self._crashed:
            self._ensure_drop_chain()
        elif not self._processing:
            if not self._head_scheduled:
                self._schedule_head()
            elif inbox[0] is entry:
                # The new entry arrives before the one the outstanding event
                # was computed for: recompute the head finish time (the old
                # event's version goes stale).
                self._schedule_head()

    def _network_entry(
        self, arrival: float, seq: int, service: float, src: NodeId, message: Any
    ) -> list:
        """The inbox entry of an arrival that no push-table handler takes.

        It runs :meth:`on_message`, which raises for a message class nobody
        handles. Under the sanitizer an extra slot beyond ``_HARGS`` holds
        the payload fingerprint; heap comparisons never reach it (the seq
        in slot 1 is unique).
        """
        args = (src, message)
        san = self._sanitizer
        if san is None:
            return [arrival, seq, service, 1, self.on_message, args]
        return [arrival, seq, service, 1, self.on_message, args, san.fingerprint(args)]

    def _push_local(self, arrival: float, service: float, handler, args: tuple) -> None:
        """The one way local (non-network) work enters this node's inbox.

        ``handler(*args)`` runs at ``arrival`` behind the CPU for
        ``service`` seconds. ``handler`` is a bound method of the process
        the work belongs to: this node, or one of its guests. A crashed
        node takes no work.
        """
        if self._crashed:
            return
        sim = self.sim
        seq = sim._seq
        sim._seq = seq + 1
        san = self._sanitizer
        if san is None:
            entry = [arrival, seq, service, 0, handler, args]
        else:
            entry = [arrival, seq, service, 0, handler, args, san.fingerprint(args)]
        heappush(self._inbox, entry)
        if not self._processing:
            if not self._head_scheduled or self._inbox[0] is entry:
                self._schedule_head()

    def _record_charge(self, cost: float) -> None:
        now = self.sim.now
        self._pending_charges.append((now, cost))
        if self._head_scheduled and not self._processing:
            if self._inbox[0][_ARRIVAL] >= now:
                # The charge happened before the scheduled head even arrives,
                # so it delays that head: recompute its finish time.
                self._schedule_head()

    def _schedule_head(self) -> None:
        """(Re)schedule the finish event for the earliest-arriving entry.

        The finish time folds in pending charges up to the entry's arrival
        without consuming them — preemption by an earlier arrival may
        recompute a different entry's finish later. Bumping the version
        token implicitly cancels any previously scheduled head event.
        """
        entry = self._inbox[0]
        arrival = entry[_ARRIVAL]
        free = self._cpu_free_at
        charges = self._pending_charges
        if charges:
            for charge_time, cost in charges:
                if charge_time > arrival:
                    break
                if free < charge_time:
                    free = charge_time
                free += cost
        start = arrival if arrival > free else free
        version = self._head_version + 1
        self._head_version = version
        self._head_scheduled = True
        # The finish event reuses the entry's send/submit-time seq as its
        # tie-break, so same-instant finishes across nodes execute in
        # arrival order. Reschedules reuse it too, so a superseded event can
        # tie with its replacement on (time, seq) — when the preempting
        # entry finished before the old head's arrival — and the version,
        # compared after the (equal) callback, keeps the comparison total.
        # _process_head repeats this body inline.
        heappush(
            self._message_heap,
            [start + entry[_SERVICE], entry[_SEQ], self._head_callback, version],
        )

    def _process_head(self, version: int) -> None:
        """Run the head frame, then schedule the next entry's finish event."""
        if version != self._head_version:
            # Stale event: superseded by a preemption, a charge-triggered
            # reschedule, or a crash.
            return
        self._head_scheduled = False
        entry = heappop(self._inbox)
        arrival = entry[_ARRIVAL]
        # Commit the lazily evaluated CPU timeline: charges at or before
        # this arrival are absorbed into the finish time (== now).
        charges = self._pending_charges
        while charges and charges[0][0] <= arrival:
            charges.popleft()
        self._cpu_free_at = self.sim._now
        if entry[_IS_NET]:
            self._net_stats.messages_delivered += 1
        self._processing = True
        san = self._sanitizer
        if san is None:
            try:
                entry[_HANDLER](*entry[_HARGS])
            finally:
                self._processing = False
        else:
            san.verify(entry[_HARGS], entry[6], self.node_id)
            # Attributed to the handler's process: a guest's local work runs
            # on its host's CPU but touches only the guest's state (a handler
            # that is no bound method counts as this process's).
            san.begin_delivery(getattr(entry[_HANDLER], "__self__", self))
            try:
                entry[_HANDLER](*entry[_HARGS])
            finally:
                san.end_delivery()
                self._processing = False
        # A handler that crashed its own node already discarded the queued
        # frames (or moved them to the drop chain): nothing to re-arm.
        inbox = self._inbox
        if inbox and not self._crashed and not self._head_scheduled:
            # _schedule_head, inlined: one frame per message saved.
            entry = inbox[0]
            arrival = entry[_ARRIVAL]
            free = self._cpu_free_at
            if charges:
                for charge_time, cost in charges:
                    if charge_time > arrival:
                        break
                    if free < charge_time:
                        free = charge_time
                    free += cost
            start = arrival if arrival > free else free
            version = self._head_version + 1
            self._head_version = version
            self._head_scheduled = True
            heappush(
                self._message_heap,
                [start + entry[_SERVICE], entry[_SEQ], self._head_callback, version],
            )

    def _ensure_drop_chain(self) -> None:
        """While crashed, drop in-flight arrivals at their arrival times."""
        if self._drop_event is not None:
            if self._inbox and self._inbox[0][_ARRIVAL] < self._drop_event.time:
                self._drop_event.cancel()
            else:
                return
        if not self._inbox:
            self._drop_event = None
            return
        self._drop_event = self.sim.schedule_at(self._inbox[0][_ARRIVAL], self._drop_head)

    def _drop_head(self) -> None:
        self._drop_event = None
        if not self._crashed:
            # Recovered at exactly this timestamp: recover() already
            # rescheduled normal processing.
            return
        now = self.sim.now
        dropped = 0
        while self._inbox and self._inbox[0][_ARRIVAL] <= now:
            dropped += heappop(self._inbox)[_IS_NET]
        if dropped:
            self.network.stats.messages_dropped_crashed += dropped
        if self._inbox:
            self._drop_event = self.sim.schedule_at(self._inbox[0][_ARRIVAL], self._drop_head)

    def _timer_fired(self, callback: Callable[..., None], args: Tuple[Any, ...]) -> None:
        if self._crashed:
            return
        san = self._sanitizer
        if san is None:
            callback(*args)
            return
        san.begin_delivery(self)
        try:
            callback(*args)
        finally:
            san.end_delivery()
