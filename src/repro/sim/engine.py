"""Discrete-event simulation engine.

The engine is a classic calendar-queue simulator: callbacks are scheduled at
absolute simulated times and executed in time order. Ties are broken by
insertion order so that runs are fully deterministic for a given seed and
schedule of calls.

Times are expressed in **seconds** of simulated time throughout the library;
microsecond-scale datacenter latencies therefore appear as values around
``2e-6``.

Hot-path design: heap entries are small lists ``[time, seq, callback, args,
cancelled]`` so that ``heapq`` orders them with C-level list comparison
(``time`` then the unique ``seq``; the comparison never reaches the callback
slot) instead of dispatching to a Python ``__lt__``. :class:`EventHandle`
*is* the heap entry — a ``list`` subclass — so scheduling allocates a single
object. Cancellation stays O(1) and lazy, but the engine counts outstanding
cancelled entries and compacts the heap once they dominate it, keeping pop
cost bounded for timer-heavy protocols.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

from repro.errors import SimulationDeadlock, SimulationError

#: Heap-entry slot indices (see module docstring).
_TIME, _SEQ, _CALLBACK, _ARGS, _CANCELLED = range(5)

#: Compaction starts only once this many cancelled entries are outstanding,
#: so small simulations never pay for a heap rebuild.
_COMPACT_MIN_CANCELLED = 512


class EventHandle(list):
    """Handle to a scheduled event, usable to cancel it.

    The handle doubles as the heap entry ``[time, seq, callback, args,
    cancelled]``. Cancellation is lazy: the entry stays in the heap but is
    skipped when popped. This keeps ``cancel`` O(1), which matters because
    protocols cancel many timers (e.g. message-loss timeouts that did not
    fire); the owning :class:`Simulator` compacts the heap when cancelled
    entries pile up.
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
    def seq(self) -> int:
        """Insertion sequence number (ties break in insertion order)."""
        return self[_SEQ]

    @property
    def callback(self) -> Optional[Callable[..., None]]:
        """The scheduled callback (``None`` once fired or cancelled)."""
        return self[_CALLBACK]

    @property
    def args(self) -> tuple:
        """Arguments the callback will be invoked with."""
        return self[_ARGS]

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
        # Entries are EventHandles (cancellable) or plain lists (node inbox).
        self._heap: List[list] = []
        self._seq = 0
        self._events_executed = 0
        self._cancelled_pending = 0
        self._running = False
        self._stopped = False

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
        """Number of events still in the queue (including cancelled ones)."""
        return len(self._heap)

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

    # Note for maintainers: the node inbox (repro.sim.node) pushes plain
    # list entries ``[time, seq, callback, args, False]`` into ``_heap``
    # directly — no EventHandle, no cancellation back-reference — and
    # allocates their seqs from ``_seq`` at message-send time so that
    # same-timestamp finish events tie-break in arrival order. Keep the
    # entry layout and the seq counter semantics in sync with that code.
    def _push(self, time: float, callback: Callable[..., None], args: tuple) -> EventHandle:
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle((time, seq, callback, args, False))
        handle._sim = self
        heapq.heappush(self._heap, handle)
        if (
            self._cancelled_pending > _COMPACT_MIN_CANCELLED
            and self._cancelled_pending * 2 > len(self._heap)
        ):
            self._compact()
        return handle

    def _compact(self) -> None:
        """Drop lazily-cancelled entries and re-heapify (amortized O(1))."""
        self._heap = [entry for entry in self._heap if entry[_CALLBACK] is not None]
        heapq.heapify(self._heap)
        self._cancelled_pending = 0

    def close(self) -> None:
        """Drop every pending event: nothing scheduled will ever run.

        Pending entries hold bound methods of the nodes and sessions that
        scheduled them, and those hold the simulator, so the heap is the
        hub of a deployment's reference cycles. Emptying it is part of the
        teardown of a dropped :class:`~repro.cluster.cluster.Cluster`.
        """
        self._heap.clear()
        self._cancelled_pending = 0

    # --------------------------------------------------------------- running
    def stop(self) -> None:
        """Request that the current :meth:`run` call return promptly."""
        self._stopped = True

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
        self._running = True
        self._stopped = False
        executed_this_run = 0
        heap = self._heap
        heappop = heapq.heappop
        try:
            if max_events is None and until is not None:
                # Specialized loop for the dominant run_until(...) pattern:
                # no per-event max_events bookkeeping, `until` bound check
                # without the None test.
                while heap:
                    if self._stopped:
                        break
                    entry = heap[0]
                    callback = entry[_CALLBACK]
                    if callback is None:
                        heappop(heap)
                        self._cancelled_pending -= 1
                        continue
                    event_time = entry[_TIME]
                    if event_time > until:
                        self._now = until
                        break
                    heappop(heap)
                    self._now = event_time
                    args = entry[_ARGS]
                    entry[_CALLBACK] = None
                    entry[_ARGS] = ()
                    callback(*args)
                    self._events_executed += 1
                    heap = self._heap
                else:
                    if until > self._now:
                        self._now = until
                return self._now
            while heap:
                if self._stopped:
                    break
                if max_events is not None and executed_this_run >= max_events:
                    break
                entry = heap[0]
                callback = entry[_CALLBACK]
                if callback is None:
                    # Lazily-cancelled entry: discard and keep going.
                    heappop(heap)
                    self._cancelled_pending -= 1
                    continue
                event_time = entry[_TIME]
                if until is not None and event_time > until:
                    self._now = until
                    break
                heappop(heap)
                self._now = event_time
                args = entry[_ARGS]
                entry[_CALLBACK] = None
                entry[_ARGS] = ()
                callback(*args)
                self._events_executed += 1
                executed_this_run += 1
                # A compaction inside a callback replaces the heap list.
                heap = self._heap
            else:
                # Queue drained.
                if until is not None and until > self._now:
                    self._now = until
        finally:
            self._running = False
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
            if not self._heap:
                raise SimulationDeadlock(
                    "event queue drained before run_until predicate was satisfied"
                )
            target = self._now + check_interval
            if max_time is not None:
                target = min(target, max_time)
            self.run(until=target)
        return self._now
