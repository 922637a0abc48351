"""Unit tests for node processes, CPU queueing and clocks/RNG."""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigurationError
from repro.sim.clock import ClockConfig, LooselySynchronizedClock
from repro.sim.engine import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.node import NodeProcess, ServiceTimeModel
from repro.sim.rng import SeededRNG


class EchoNode(NodeProcess):
    """A node recording everything it processes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen = []
        self.local = []

    def on_message(self, src, message):
        self.seen.append((src, message, self.sim.now))

    def on_local_work(self, work):
        self.local.append((work, self.sim.now))


def build_pair(sim, service=None):
    network = Network(sim, NetworkConfig(jitter=0.0))
    a = EchoNode(0, sim, network, service)
    b = EchoNode(1, sim, network, service)
    return network, a, b


# ------------------------------------------------------------ service model
def test_service_cost_scaling():
    model = ServiceTimeModel(base=1e-6, per_byte=1e-9, worker_threads=1)
    assert model.cost(0) == pytest.approx(1e-6)
    assert model.cost(1000) == pytest.approx(2e-6)
    assert model.cost(0, weight=2.0) == pytest.approx(2e-6)


def test_service_cost_divided_by_workers():
    model = ServiceTimeModel(base=1e-6, per_byte=0.0, worker_threads=4)
    assert model.cost(0) == pytest.approx(0.25e-6)


def test_send_cost_cheaper_than_receive():
    model = ServiceTimeModel()
    assert model.send_cost(32) < model.cost(32)


def test_service_model_validation():
    with pytest.raises(ConfigurationError):
        ServiceTimeModel(base=-1.0).validate()
    with pytest.raises(ConfigurationError):
        ServiceTimeModel(worker_threads=0).validate()


# --------------------------------------------------------------- processing
def test_message_delivery_invokes_handler(sim):
    _, a, b = build_pair(sim)
    a.send(1, "ping", size_bytes=8)
    sim.run()
    assert len(b.seen) == 1
    assert b.seen[0][0] == 0


def test_local_work_invokes_local_handler(sim):
    _, a, _ = build_pair(sim)
    a.submit_local("job")
    sim.run()
    assert a.local[0][0] == "job"


def test_cpu_queueing_serializes_messages(sim):
    service = ServiceTimeModel(base=10e-6, per_byte=0.0, send_overhead=0.0, worker_threads=1)
    _, a, _ = build_pair(sim, service)
    a.submit_local("one")
    a.submit_local("two")
    sim.run()
    first_done = a.local[0][1]
    second_done = a.local[1][1]
    assert second_done - first_done == pytest.approx(10e-6)


def test_queue_depth_tracks_outstanding_work(sim):
    service = ServiceTimeModel(base=10e-6, per_byte=0.0, worker_threads=1)
    _, a, _ = build_pair(sim, service)
    a.submit_local("one")
    a.submit_local("two")
    assert a.queue_depth == 2
    sim.run()
    assert a.queue_depth == 0


def test_crashed_node_ignores_messages(sim):
    _, a, b = build_pair(sim)
    b.crash()
    a.send(1, "ping")
    sim.run()
    assert b.seen == []


def test_crashed_node_does_not_send(sim):
    _, a, b = build_pair(sim)
    a.crash()
    a.send(1, "ping")
    sim.run()
    assert b.seen == []


def test_crash_drops_queued_work(sim):
    service = ServiceTimeModel(base=10e-6, per_byte=0.0, worker_threads=1)
    _, a, _ = build_pair(sim, service)
    a.submit_local("one")
    a.crash()
    sim.run()
    assert a.local == []


def test_recover_allows_processing_again(sim):
    _, a, b = build_pair(sim)
    b.crash()
    b.recover()
    a.send(1, "ping")
    sim.run()
    assert len(b.seen) == 1


def test_timer_fires_unless_crashed(sim):
    _, a, _ = build_pair(sim)
    fired = []
    a.set_timer(1e-3, fired.append, "t")
    sim.run()
    assert fired == ["t"]


def test_timer_suppressed_after_crash(sim):
    _, a, _ = build_pair(sim)
    fired = []
    a.set_timer(1e-3, fired.append, "t")
    a.crash()
    sim.run()
    assert fired == []


def test_charge_send_delays_subsequent_processing(sim):
    service = ServiceTimeModel(base=1e-6, per_byte=0.0, send_overhead=5e-6, worker_threads=1)
    _, a, b = build_pair(sim, service)
    a.send(1, "x")
    a.submit_local("after-send")
    sim.run()
    # The local work is processed only after the send overhead + its own cost.
    assert a.local[0][1] >= 5e-6


# -------------------------------------------------------------------- clock
def test_clock_skew_bounded():
    for seed in range(10):
        clock = LooselySynchronizedClock(ClockConfig(max_skew=1e-3), rng=random.Random(seed))
        assert abs(clock.offset) <= 1e-3


def test_clock_read_is_affine():
    clock = LooselySynchronizedClock(ClockConfig(max_skew=0.0, drift_ppm=0.0))
    assert clock.read(5.0) == pytest.approx(5.0)


def test_clock_divergence_bound():
    a = LooselySynchronizedClock(ClockConfig(max_skew=1e-3, drift_ppm=0.0), rng=random.Random(1))
    b = LooselySynchronizedClock(ClockConfig(max_skew=1e-3, drift_ppm=0.0), rng=random.Random(2))
    assert a.max_divergence(10.0, b) <= 2e-3 + 1e-12


def test_clock_config_validation():
    with pytest.raises(ConfigurationError):
        ClockConfig(max_skew=-1.0).validate()


# ---------------------------------------------------------------------- rng
def test_rng_streams_are_deterministic():
    a = SeededRNG(1).stream("net")
    b = SeededRNG(1).stream("net")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_rng_streams_are_independent_by_name():
    root = SeededRNG(1)
    assert root.stream("a").random() != root.stream("b").random()


def test_rng_same_name_returns_same_stream():
    root = SeededRNG(1)
    assert root.stream("x") is root.stream("x")


def test_rng_child_derivation_differs_from_parent():
    root = SeededRNG(1)
    child = root.child("node-0")
    assert child.seed != root.seed

