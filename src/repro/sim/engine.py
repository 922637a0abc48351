"""Discrete-event simulation engine.

The engine is a classic calendar-queue simulator: callbacks are scheduled at
absolute simulated times and executed in time order. Ties are broken by
insertion order so that runs are fully deterministic for a given seed and
schedule of calls.

Times are expressed in **seconds** of simulated time throughout the library;
microsecond-scale datacenter latencies therefore appear as values around
``2e-6``.

Hot-path design: there are two heaps, and both hold small lists that
``heapq`` orders with C-level list comparison (``time``, then ``seq``)
instead of dispatching to a Python ``__lt__``. The *timer heap* holds every
:class:`EventHandle` (:meth:`Simulator.schedule`, ``schedule_at``,
``call_soon``, and so every node timer); a handle *is* its heap entry
``[time, seq, callback, args, cancelled]`` — a ``list`` subclass — so
scheduling allocates a single object. Cancellation stays O(1) and lazy, and
the engine counts the cancelled timers still queued and compacts the timer
heap once they dominate it. The *message heap* holds plain ``[time, seq,
callback, arg]`` entries that nobody cancels, each run as ``callback(arg)``
with its one argument: a node's head event carries its version int, a
network callback sink its ``(src, message, total_bytes)`` tuple, so no
argument tuple is built or unpacked per message. :meth:`Simulator.run`
executes whichever of the two tops has the lower ``(time, seq)``, and then
drains message events back to back while the message top still precedes
the timer top. Seqs come from one counter, so the order is the one a single
heap would give, and they are unique but for one case: a node's superseded
head event may tie with its replacement, and the version in its ``arg``
then decides (see :mod:`repro.sim.node`). Most timers (a Hermes write's
``mlt`` retransmission timer, say) are cancelled microseconds after they
are armed; keeping their dead entries off the message heap keeps every
message push and pop as cheap as the live traffic allows.
"""

from __future__ import annotations

import heapq
import math
import sys
from typing import Any, Callable, List, Optional

from repro.errors import SimulationDeadlock, SimulationError

#: Heap-entry slot indices (see module docstring). A message-heap entry
#: keeps its one argument where a timer keeps its argument tuple.
_TIME, _SEQ, _CALLBACK, _ARGS, _CANCELLED = range(5)
_ARG = _ARGS

#: Compaction starts only once this many cancelled entries are outstanding,
#: so small simulations never pay for a heap rebuild.
_COMPACT_MIN_CANCELLED = 512

#: ``Simulator.run``'s event-count bound when it has none (an int, so the
#: per-event check compares two ints).
_NO_LIMIT = sys.maxsize


class EventHandle(list):
    """Handle to a scheduled event, usable to cancel it.

    The handle doubles as the timer-heap entry ``[time, seq, callback, args,
    cancelled]``. Cancellation is lazy: the entry stays in the timer heap
    but is skipped when popped. This keeps ``cancel`` O(1), which matters
    because protocols cancel many timers (e.g. message-loss timeouts that
    did not fire); the owning :class:`Simulator` compacts the timer heap
    when cancelled entries pile up.
    """

    __slots__ = ("_sim",)

    # Handles were hashable-by-identity before they became list entries;
    # keep that contract so callers can store them in sets/dicts.
    __hash__ = object.__hash__

    @property
    def time(self) -> float:
        """Absolute simulated time at which the event fires."""
        return self[_TIME]

    @property
    def callback(self) -> Optional[Callable[..., None]]:
        """The scheduled callback (``None`` once fired or cancelled)."""
        return self[_CALLBACK]

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called on this event."""
        return self[_CANCELLED]

    def cancel(self) -> None:
        """Cancel the event; it will not be executed."""
        if self[_CANCELLED]:
            return
        self[_CANCELLED] = True
        if self[_CALLBACK] is not None:
            # Still pending in the heap: drop the references and let the
            # simulator know one more entry is dead weight.
            self[_CALLBACK] = None
            self[_ARGS] = ()
            sim = self._sim
            if sim is not None:
                sim._cancelled_pending += 1
        self._sim = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self[_CANCELLED] else "pending"
        return f"EventHandle(t={self[_TIME]:.9f}, seq={self[_SEQ]}, {state})"


class Simulator:
    """A deterministic discrete-event simulator.

    Typical usage::

        sim = Simulator()
        sim.schedule(1.0, print, "one second elapsed")
        sim.run()

    The simulator does not know anything about nodes or networks; those are
    layered on top (see :mod:`repro.sim.node` and :mod:`repro.sim.network`).
    """

    def __init__(self) -> None:
        self._now: float = 0.0
        #: The message heap: plain ``[time, seq, callback, arg]`` entries
        #: (node head events, callback-sink arrivals), never cancelled.
        self._heap: List[list] = []
        #: The timer heap: :class:`EventHandle` entries, lazily cancelled.
        self._timers: List[EventHandle] = []
        self._seq = 0
        self._events_executed = 0
        #: Cancelled handles still queued on the timer heap.
        self._cancelled_pending = 0
        #: Executed-event count at which the current run stops.
        self._stop_at = _NO_LIMIT

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of callbacks executed so far (useful for budget checks)."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of events still queued on both heaps (cancelled timers included)."""
        return len(self._heap) + len(self._timers)

    # ------------------------------------------------------------ scheduling
    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Args:
            delay: Non-negative delay in simulated seconds.
            callback: Callable invoked when the event fires.
            *args: Positional arguments passed to the callback.

        Returns:
            An :class:`EventHandle` that can be used to cancel the event.

        Raises:
            SimulationError: if ``delay`` is negative.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule event in the past (delay={delay})")
        return self._push(self._now + delay, callback, args)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time} before current time t={self._now}"
            )
        return self._push(time, callback, args)

    def call_soon(self, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at the current simulated time."""
        return self._push(self._now, callback, args)

    # Note for maintainers: ``_push`` is the only way onto the timer heap.
    # The message heap ``_heap`` has no method: the node inbox
    # (repro.sim.node) and the network's callback sink
    # (``Network.register``) push plain entries ``[time, seq, callback,
    # arg]`` into it directly — no EventHandle, no cancellation — with
    # seqs allocated from ``_seq`` at message-send time so that
    # same-timestamp finish events tie-break in arrival order. Keep the
    # entry layout and the seq counter semantics in sync with that code.
    def _push(self, time: float, callback: Callable[..., None], args: tuple) -> EventHandle:
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle((time, seq, callback, args, False))
        handle._sim = self
        timers = self._timers
        heapq.heappush(timers, handle)
        if (
            self._cancelled_pending > _COMPACT_MIN_CANCELLED
            and self._cancelled_pending * 2 > len(timers)
        ):
            self._compact()
        return handle

    def _compact(self) -> None:
        """Drop lazily-cancelled timers and re-heapify (amortized O(1)).

        In place: :meth:`run` holds the timer heap list across callbacks.
        """
        timers = self._timers
        timers[:] = [entry for entry in timers if entry[_CALLBACK] is not None]
        heapq.heapify(timers)
        self._cancelled_pending = 0

    def close(self) -> None:
        """Drop every pending event: nothing scheduled will ever run.

        Pending entries hold bound methods of the nodes and sessions that
        scheduled them, and those hold the simulator, so the heaps are the
        hub of a deployment's reference cycles. Emptying them is part of the
        teardown of a dropped :class:`~repro.cluster.cluster.Cluster`.
        """
        self._heap.clear()
        self._timers.clear()
        self._cancelled_pending = 0

    # --------------------------------------------------------------- running
    def stop(self) -> None:
        """Request that the current :meth:`run` call return promptly."""
        self._stop_at = -1

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run the event loop.

        Args:
            until: If given, stop once simulated time would exceed this value.
                Events scheduled exactly at ``until`` are executed.
            max_events: If given, stop after executing this many events. Used
                by tests as a runaway guard.

        Returns:
            The simulated time when the run stopped.
        """
        # Both bounds are normalised once, so each event pays one count
        # check (which :meth:`stop` also trips) and one time check.
        self._stop_at = _NO_LIMIT if max_events is None else self._events_executed + max_events
        horizon = math.inf if until is None else until
        heap = self._heap
        timers = self._timers
        heappop = heapq.heappop
        while self._events_executed < self._stop_at:
            if timers:
                timer = timers[0]
                if timer[_CALLBACK] is None:
                    # Lazily-cancelled timer: discard and keep going.
                    heappop(timers)
                    self._cancelled_pending -= 1
                    continue
                if not heap or timer < heap[0]:
                    event_time = timer[_TIME]
                    if event_time > horizon:
                        self._now = until
                        return until
                    heappop(timers)
                    self._now = event_time
                    callback = timer[_CALLBACK]
                    args = timer[_ARGS]
                    # A fired handle reads as spent (``callback`` is None).
                    timer[_CALLBACK] = None
                    timer[_ARGS] = ()
                    callback(*args)
                    self._events_executed += 1
                    continue
            elif not heap:
                # Both heaps drained.
                if until is not None and until > self._now:
                    self._now = until
                break
            # The message top runs next, and so does every message top after
            # it that still precedes the timer top. A handler may arm a timer
            # ahead of the next message, so the timer top is read afresh.
            entry = heap[0]
            while True:
                event_time = entry[_TIME]
                if event_time > horizon:
                    self._now = until
                    return until
                heappop(heap)
                self._now = event_time
                entry[_CALLBACK](entry[_ARG])
                self._events_executed += 1
                if not heap or self._events_executed >= self._stop_at:
                    break
                entry = heap[0]
                if timers and timers[0] < entry:
                    break
        return self._now

    def run_until(
        self,
        predicate: Callable[[], bool],
        check_interval: float = 1e-4,
        max_time: Optional[float] = None,
    ) -> float:
        """Run until ``predicate()`` is true, checking after every event batch.

        Args:
            predicate: Zero-argument callable evaluated periodically.
            check_interval: How much simulated time to advance between checks.
            max_time: Optional hard cap on simulated time.

        Returns:
            Simulated time when the predicate first held.

        Raises:
            SimulationDeadlock: if the event queue drains (or ``max_time`` is
                reached) before the predicate becomes true.
        """
        while not predicate():
            if max_time is not None and self._now >= max_time:
                raise SimulationDeadlock(
                    f"predicate not satisfied by max_time={max_time} (now={self._now})"
                )
            if not self._heap and not self._timers:
                raise SimulationDeadlock(
                    "event queue drained before run_until predicate was satisfied"
                )
            target = self._now + check_interval
            if max_time is not None:
                target = min(target, max_time)
            self.run(until=target)
        return self._now
