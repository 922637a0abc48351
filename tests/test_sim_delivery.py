"""Behaviour of the node inbox: the one way a ``NodeProcess`` receives work.

Covers what a change to :mod:`repro.sim.node` / :mod:`repro.sim.network`
must keep: the network's conservation law, the crash model, the ordering of
timers against queued frames, ``stop()``/resume, the sanitizer staying an
observer — and the machine-independent event/message counts of three small
cells, pinned to literals so a delivery change that counts differently
fails here before it reaches a figure baseline.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis.sanitize import get_sanitizer, reset_sanitizer
from repro.bench.harness import ExperimentSpec, build_clients, build_cluster, build_workload
from repro.cluster.client import ClosedLoopClient, run_clients
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.failures import FailureEvent, FailureInjector
from repro.sim.engine import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.node import NodeProcess, ServiceTimeModel
from repro.workloads.generator import WorkloadMix

# ---------------------------------------------------------- conservation
def _conserved(stats) -> bool:
    return stats.messages_sent + stats.messages_duplicated == (
        stats.messages_delivered
        + stats.messages_dropped_loss
        + stats.messages_dropped_partition
        + stats.messages_dropped_crashed
    )


def _hermes_cluster(seed: int, write_ratio: float, **net_kwargs):
    cluster = Cluster(
        ClusterConfig(
            protocol="hermes", num_replicas=3, seed=seed, network=NetworkConfig(**net_kwargs)
        )
    )
    workload = WorkloadMix.uniform(50, write_ratio=write_ratio, seed=seed)
    cluster.preload(workload.initial_dataset())
    return cluster, workload


def test_network_stats_conserved_under_loss_and_duplication():
    cluster, workload = _hermes_cluster(
        5, 0.5, loss_rate=0.05, duplicate_rate=0.05, reorder_rate=0.05
    )
    clients = [
        ClosedLoopClient(
            client_id=i, cluster=cluster, workload=workload, max_ops=30, replica_id=i % 3
        )
        for i in range(6)
    ]
    run_clients(cluster, clients, max_time=30.0)
    cluster.run()  # drain every in-flight message and timer
    stats = cluster.network.stats
    assert stats.messages_dropped_loss > 0
    assert stats.messages_duplicated > 0
    assert _conserved(stats)


def test_network_stats_conserved_across_crash():
    cluster, workload = _hermes_cluster(9, 1.0)
    for i in range(3):
        ClosedLoopClient(
            client_id=i, cluster=cluster, workload=workload, max_ops=10**9, replica_id=i
        ).start()
    FailureInjector(cluster, [FailureEvent.crash(20e-6, 2)]).arm()
    cluster.run(until=200e-6)
    cluster.crash(0)
    cluster.crash(1)  # stop the survivors issuing; then drain in-flight traffic
    cluster.run()
    assert cluster.network.stats.messages_dropped_crashed > 0
    assert _conserved(cluster.network.stats)


# ------------------------------------------------------------ node level
class _Recorder(NodeProcess):
    """Records every delivery with its virtual timestamp."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen = []

    def on_message(self, src, message):
        self.seen.append((message, self.sim.now))

    def on_local_work(self, work):
        self.seen.append((work, self.sim.now))
        if work == "crasher":
            self.crash()
        elif work == "stopper":
            self.sim.stop()


def _pair():
    sim = Simulator()
    network = Network(sim, NetworkConfig(jitter=0.0))
    service = ServiceTimeModel(base=10e-6, per_byte=0.0, send_overhead=0.0, worker_threads=1)
    return sim, _Recorder(0, sim, network, service), _Recorder(1, sim, network, service)


def _labels(node):
    return [label for label, _ in node.seen]


def test_timer_armed_before_crash_never_fires_after_recover():
    sim, a, _ = _pair()
    fired = []
    a.set_timer(1e-3, fired.append, "pre-crash")
    sim.run(until=1e-4)
    a.crash()
    a.recover()
    a.set_timer(2e-3, fired.append, "post-recover")
    sim.run()
    assert fired == ["post-recover"]


def test_queued_work_dropped_permanently_by_crash():
    """Work queued before a crash must not run even if the node recovers
    before its scheduled processing time (crash discards the queue)."""
    sim, a, _ = _pair()
    a.submit_local("doomed")
    a.crash()
    a.recover()
    sim.run()
    assert a.seen == []
    a.submit_local("alive")
    sim.run()
    assert _labels(a) == ["alive"]


def test_handler_crashing_its_own_node_discards_frames_queued_behind_it():
    sim, a, _ = _pair()
    for work in ("w1", "crasher", "doomed-1", "doomed-2"):
        a.submit_local(work)
    sim.run()
    assert _labels(a) == ["w1", "crasher"]
    a.recover()
    a.submit_local("alive")
    sim.run()
    assert _labels(a) == ["w1", "crasher", "alive"]


def test_in_flight_message_survives_crash_recover_cycle():
    """A message still on the wire when the node crashes is delivered
    normally if the node has recovered by its arrival time."""
    sim, a, b = _pair()
    a.send(1, "in-flight", size_bytes=8)  # arrives after ~2us network latency
    b.crash()
    b.recover()
    sim.run()
    assert _labels(b) == ["in-flight"]


def test_in_flight_message_dropped_while_node_down():
    sim, a, b = _pair()
    a.send(1, "lost", size_bytes=8)
    b.crash()
    sim.run()
    assert b.seen == []
    assert sim.now > 0
    assert b.network.stats.messages_dropped_crashed == 1


def test_timer_due_between_two_frames_fires_between_them():
    sim, a, _ = _pair()
    a.submit_local("w1")
    a.submit_local("w2")
    a.set_timer(15e-6, lambda: a.seen.append(("timer", sim.now)))
    sim.run()
    assert a.seen == [
        ("w1", pytest.approx(10e-6)),
        ("timer", pytest.approx(15e-6)),
        ("w2", pytest.approx(20e-6)),
    ]


def test_stop_from_a_handler_halts_before_the_next_frame_and_run_resumes():
    sim, a, _ = _pair()
    a.submit_local("stopper")
    a.submit_local("after-stop")
    sim.run()
    assert _labels(a) == ["stopper"]
    sim.run()  # the queued frame is not lost
    assert _labels(a) == ["stopper", "after-stop"]


# ------------------------------------------------------ whole-cell counts
def _run_cell(**spec_kwargs):
    """(events executed, messages sent, messages delivered, completion digest).

    Op ids come from a process-global counter, so the digest keys each
    completion time by the op's rank in id order, not by the id itself.
    """
    spec = ExperimentSpec(**spec_kwargs)
    cluster = build_cluster(spec)
    workload = build_workload(spec)
    cluster.preload(workload.initial_dataset())
    clients = build_clients(spec, cluster, workload, None)
    run_clients(cluster, clients, max_time=spec.max_sim_time)
    records = sorted((r for c in clients for r in c.results), key=lambda r: r.op.op_id)
    ends = "\n".join(f"{rank},{r.end_time:.12f}" for rank, r in enumerate(records))
    stats = cluster.network.stats
    return (
        cluster.sim.events_executed,
        stats.messages_sent,
        stats.messages_delivered,
        hashlib.sha256(ends.encode()).hexdigest(),
    )


_FLAT = dict(num_replicas=5, num_keys=200, clients_per_replica=3, ops_per_client=40, seed=7)
_COUPLED = dict(
    _FLAT, protocol="hermes", num_replicas=3, write_ratio=0.3, num_keys=120, seed=11,
    shards=4, txn_fraction=0.2, txn_keys=2, txn_cross_shard=0.5,
)


@pytest.mark.parametrize(
    "spec_kwargs, expected",
    [
        pytest.param(
            dict(_FLAT, protocol="hermes", write_ratio=1.0),
            (7783, 7164, 7164, "42a1fa541bb997aaa34a33cd65221797abfc3cce446de41db037622da7252d92"),
            id="hermes-writes",
        ),
        pytest.param(
            dict(_FLAT, protocol="craq", write_ratio=0.2),
            (1939, 1315, 1315, "dc7d9f1720f3ff36c478eaaedf0e29d34bc4a9fd686162530dfc0df53784695d"),
            id="craq",
        ),
        pytest.param(
            _COUPLED,
            (1537, 1040, 1040, "310d666066921d8de1a0011cca9711efeeb37477c8f94e04ce113b2dd845cc87"),
            id="coupled-txn",
        ),
    ],
)
def test_event_and_message_counts_are_pinned(spec_kwargs, expected):
    assert _run_cell(**spec_kwargs) == expected


def test_sanitizer_observes_sharded_coupled_run_without_changing_it(monkeypatch):
    plain = _run_cell(**_COUPLED)
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    try:
        assert _run_cell(**_COUPLED) == plain
        assert get_sanitizer().fingerprints_checked > 0
    finally:
        reset_sanitizer()

