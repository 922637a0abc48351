"""Unit tests for the discrete-event simulation engine."""

from __future__ import annotations

import pytest

from repro.errors import SimulationDeadlock, SimulationError
from repro.sim.engine import Simulator
from repro.sim.network import DEFAULT_HEADER_BYTES, Network, NetworkConfig


def test_initial_time_is_zero(sim):
    assert sim.now == 0.0


def test_schedule_and_run_executes_callback(sim):
    fired = []
    sim.schedule(1.5, fired.append, "a")
    sim.run()
    assert fired == ["a"]
    assert sim.now == pytest.approx(1.5)


def test_events_execute_in_time_order(sim):
    order = []
    sim.schedule(2.0, order.append, "late")
    sim.schedule(1.0, order.append, "early")
    sim.schedule(3.0, order.append, "last")
    sim.run()
    assert order == ["early", "late", "last"]


def test_ties_break_in_insertion_order(sim):
    order = []
    for label in ("first", "second", "third"):
        sim.schedule(1.0, order.append, label)
    sim.run()
    assert order == ["first", "second", "third"]


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_before_now_rejected(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_cancelled_event_does_not_fire(sim):
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    handle.cancel()
    sim.run()
    assert fired == []


def test_cancel_is_idempotent(sim):
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()
    assert handle.cancelled


def test_run_until_time_boundary(sim):
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(5.0, fired.append, "b")
    sim.run(until=2.0)
    assert fired == ["a"]
    assert sim.now == pytest.approx(2.0)
    sim.run()
    assert fired == ["a", "b"]


def test_run_until_exact_event_time_includes_event(sim):
    fired = []
    sim.schedule(2.0, fired.append, "edge")
    sim.run(until=2.0)
    assert fired == ["edge"]


def test_run_max_events(sim):
    fired = []
    for i in range(10):
        sim.schedule(i * 0.1, fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_call_soon_runs_at_current_time(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    times = []
    sim.call_soon(lambda: times.append(sim.now))
    sim.run()
    assert times == [pytest.approx(1.0)]


def test_events_scheduled_during_run_are_executed(sim):
    order = []

    def chain(depth):
        order.append(depth)
        if depth < 3:
            sim.schedule(0.1, chain, depth + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert order == [0, 1, 2, 3]


def test_stop_interrupts_run(sim):
    fired = []

    def stopper():
        fired.append("stop")
        sim.stop()

    sim.schedule(1.0, stopper)
    sim.schedule(2.0, fired.append, "after")
    sim.run()
    assert fired == ["stop"]
    sim.run()
    assert fired == ["stop", "after"]


def test_run_until_predicate(sim):
    counter = []

    def tick():
        counter.append(1)
        sim.schedule(0.001, tick)

    sim.schedule(0.0, tick)
    sim.run_until(lambda: len(counter) >= 5, check_interval=0.001)
    assert len(counter) >= 5


def test_run_until_raises_on_drained_queue(sim):
    sim.schedule(0.1, lambda: None)
    with pytest.raises(SimulationDeadlock):
        sim.run_until(lambda: False, check_interval=0.05)


def test_run_until_raises_on_max_time(sim):
    def tick():
        sim.schedule(0.01, tick)

    sim.schedule(0.0, tick)
    with pytest.raises(SimulationDeadlock):
        sim.run_until(lambda: False, check_interval=0.01, max_time=0.1)


def test_events_executed_counter(sim):
    for i in range(5):
        sim.schedule(i * 0.1, lambda: None)
    sim.run()
    assert sim.events_executed == 5


def test_run_past_queue_advances_to_until(sim):
    sim.schedule(0.1, lambda: None)
    sim.run(until=5.0)
    assert sim.now == pytest.approx(5.0)


def test_pending_events_count(sim):
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending_events == 2
    sim.run()
    assert sim.pending_events == 0


def test_cancel_after_fire_is_harmless(sim):
    fired = []
    handle = sim.schedule(0.1, fired.append, "x")
    sim.run()
    handle.cancel()
    assert fired == ["x"]
    assert handle.cancelled


def test_mass_cancellation_triggers_heap_compaction(sim):
    """Lazily-cancelled entries must not accumulate without bound: once they
    dominate the heap, scheduling compacts them away."""
    handles = [sim.schedule(1.0 + i * 1e-6, lambda: None) for i in range(4000)]
    for handle in handles[:-1]:
        handle.cancel()
    # Pushing a few more events crosses the compaction threshold.
    keep = []
    for i in range(4):
        keep.append(sim.schedule(2.0 + i, keep.append))
    assert sim.pending_events < 1000
    fired = []
    sim.schedule(0.5, fired.append, "live")
    sim.run(until=1.5)
    assert fired == ["live"]


def test_determinism_with_heavy_cancellation(sim):
    """Cancelling 90% of timers does not perturb the surviving order."""
    order = []
    handles = []
    for i in range(1000):
        handles.append(sim.schedule(1e-3 + (i % 17) * 1e-6, order.append, i))
    for i, handle in enumerate(handles):
        if i % 10 != 0:
            handle.cancel()
    sim.run()
    expected = sorted(
        (i for i in range(1000) if i % 10 == 0),
        key=lambda i: ((i % 17) * 1e-6, i),
    )
    assert order == expected


# --------------------------------------------------------------- two heaps
def _sink_network(sim, latency=1.0):
    """A jitter-free network whose node 1 is a callback sink: what it
    receives rides the message heap, ``latency`` seconds after the send."""
    network = Network(sim, NetworkConfig(base_latency=latency, jitter=0.0, per_byte_latency=0.0))
    received = []
    network.register(1, lambda src, message, size: received.append((sim.now, message)))
    return network, received


@pytest.mark.parametrize("timer_first", [True, False])
def test_timer_and_arrival_at_one_instant_run_in_seq_order(sim, timer_first):
    network, _ = _sink_network(sim)
    order = []
    network.register(1, lambda src, message, size: order.append("arrival"))
    if timer_first:
        sim.schedule(1.0, order.append, "timer")
        network.send(0, 1, "m")
    else:
        network.send(0, 1, "m")
        sim.schedule(1.0, order.append, "timer")
    sim.run()
    expected = ["timer", "arrival"] if timer_first else ["arrival", "timer"]
    assert order == expected
    assert sim.now == 1.0


def test_cancelled_timers_stay_off_the_message_heap(sim):
    """Arm and cancel 10k timers while messages flow: the message heap
    holds only the live arrivals, and compaction bounds the timer heap."""
    network = Network(sim, NetworkConfig(base_latency=1e-6, jitter=0.0, per_byte_latency=0.0))
    timers = []
    heap_sizes = []

    def bounce(src, message, size):
        heap_sizes.append(len(sim._heap))
        if timers:
            timers[-1].cancel()
        if message < 10_000:
            timers.append(sim.schedule(400e-6, lambda: None))
            network.send(1, 2, message + 1)

    network.register(1, bounce)
    network.register(2, bounce)
    network.send(2, 1, 0)
    sim.run()
    assert len(heap_sizes) == 10_001 and set(heap_sizes) == {0}
    assert len(timers) == 10_000 and all(handle.cancelled for handle in timers)
    assert sim._heap == [] and sim._timers == [] and sim._cancelled_pending == 0


def test_pending_events_counts_both_heaps(sim):
    network, received = _sink_network(sim)
    sim.schedule(2.0, lambda: None)
    network.send(0, 1, "m")
    assert (len(sim._heap), len(sim._timers), sim.pending_events) == (1, 1, 2)
    sim.run(until=1.5)
    assert received == [(1.0, "m")]
    assert sim.pending_events == 1
    sim.run()
    assert sim.pending_events == 0


@pytest.mark.parametrize("pending", ["arrival", "timer"])
def test_run_until_deadlocks_only_once_both_heaps_are_empty(sim, pending):
    network, received = _sink_network(sim)
    fired = []
    if pending == "arrival":
        network.send(0, 1, "m")
    else:
        sim.schedule(1.0, fired.append, "t")
    # One heap is empty from the start: run_until keeps running the other.
    sim.run_until(lambda: received or fired, check_interval=0.25)
    assert sim.now == 1.0
    with pytest.raises(SimulationDeadlock):
        sim.run_until(lambda: False, check_interval=0.25)


def test_close_empties_both_heaps(sim):
    network, received = _sink_network(sim)
    sim.schedule(1.0, lambda: None).cancel()
    sim.schedule(1.0, lambda: None)
    network.send(0, 1, "m")
    sim.close()
    assert sim._heap == [] and sim._timers == [] and sim.pending_events == 0
    sim.run()
    assert received == [] and sim.events_executed == 0


def test_a_sink_arrival_carries_its_tuple_as_the_one_argument(sim):
    network, received = _sink_network(sim)
    network.send(0, 1, "m", 8)
    ((time, seq, deliver, arrival),) = sim._heap
    assert (time, arrival) == (1.0, (0, "m", 8 + DEFAULT_HEADER_BYTES))
    sim.run()
    assert received == [(1.0, "m")]
    assert network.stats.messages_delivered == 1


def _ping_pong(sim, on_delivery):
    """Nodes 1 and 2 bounce a counter up to 50, one message event per hop
    and no timer; ``on_delivery(count)`` runs in every handler."""
    network = Network(sim, NetworkConfig(base_latency=1e-6, jitter=0.0, per_byte_latency=0.0))

    def bounce(src, count, size):
        on_delivery(count)
        if count < 50:
            network.send(src ^ 3, src, count + 1)

    network.register(1, bounce)
    network.register(2, bounce)
    network.send(2, 1, 1)


def test_stop_and_max_events_are_exact_inside_a_run_of_message_events(sim):
    seen = []

    def on_delivery(count):
        seen.append(count)
        if count == 5:
            sim.stop()

    _ping_pong(sim, on_delivery)
    sim.run()
    assert seen == [1, 2, 3, 4, 5] and sim.events_executed == 5
    sim.run(max_events=7)
    assert seen[-1] == 12 and sim.events_executed == 12
    assert not sim._timers and len(sim._heap) == 1


def test_a_timer_armed_by_a_message_handler_runs_before_a_later_message(sim):
    """A handler arms a timer for the current instant, then sends a message
    that arrives at that instant too: the timer's seq is lower, so it runs
    first, though the message heap's top was running when it was armed."""
    network = Network(sim, NetworkConfig(base_latency=0.0, jitter=0.0, per_byte_latency=0.0))
    order = []

    def handler(src, message, size):
        order.append(message)
        if message == "first":
            sim.call_soon(order.append, "timer")
            network.send(0, 1, "second")

    network.register(1, handler)
    network.send(0, 1, "first")
    sim.run()
    assert order == ["first", "timer", "second"]
