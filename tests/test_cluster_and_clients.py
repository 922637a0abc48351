"""Cluster assembly, client sessions and the membership service integration."""

from __future__ import annotations

import pytest

from repro.analysis.sanitize import reset_sanitizer
from repro.cluster.client import ClosedLoopClient, OpenLoopClient, run_clients
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.failures import FailureEvent, FailureInjector
from repro.core.messages import Val
from repro.core.timestamps import Timestamp
from repro.errors import ConfigurationError, SimulationError
from repro.membership.detector import FailureDetectorConfig
from repro.membership.service import MembershipConfig, MembershipService
from repro.membership.view import MembershipView
from repro.rpc import WingsPacket
from repro.sim.engine import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.node import NodeProcess
from repro.types import OpStatus
from repro.verification.history import History
from repro.verification.linearizability import check_history
from tests.conftest import make_cluster, small_workload


# ----------------------------------------------------------------- cluster
def test_cluster_builds_requested_number_of_replicas():
    cluster = make_cluster("hermes", 7)
    assert len(cluster.nodes) == 7
    assert cluster.node_ids == list(range(7))


def test_cluster_rejects_unknown_protocol():
    with pytest.raises(ConfigurationError):
        Cluster(ClusterConfig(protocol="paxos-magic"))


def test_cluster_rejects_zero_replicas():
    with pytest.raises(ConfigurationError):
        Cluster(ClusterConfig(num_replicas=0))


def test_cluster_kwarg_construction():
    cluster = Cluster(protocol="craq", num_replicas=3)
    assert cluster.config.protocol == "craq"


def test_cluster_rejects_config_plus_overrides():
    with pytest.raises(ConfigurationError):
        Cluster(ClusterConfig(), protocol="zab")


def test_preload_reaches_every_replica():
    cluster = make_cluster("hermes", 3)
    cluster.preload({"a": 1, "b": 2})
    for replica in cluster.all_replicas():
        assert replica.store.get("a") == 1
        assert replica.store.get("b") == 2


def test_crash_and_live_replicas():
    cluster = make_cluster("hermes", 3)
    cluster.crash(1)
    assert cluster.replica(1).crashed
    assert len(cluster.live_replicas()) == 2


def test_injected_crash_takes_effect_at_its_time():
    cluster = make_cluster("hermes", 3)
    FailureInjector(cluster, [FailureEvent.crash(1e-3, 1)]).arm()
    cluster.run(until=0.5e-3)
    assert not cluster.replica(1).crashed
    cluster.run(until=2e-3)
    assert cluster.replica(1).crashed


def test_total_stat_sums_over_replicas():
    cluster = make_cluster("hermes", 3)
    assert cluster.total_stat("writes_committed") == 0


def test_wings_cluster_round_trips():
    cluster = Cluster(ClusterConfig(protocol="hermes", num_replicas=3, use_wings=True))
    workload = small_workload(0.5, num_keys=5)
    cluster.preload(workload.initial_dataset())
    history = History()
    clients = [ClosedLoopClient(0, cluster, workload, max_ops=30, history=history)]
    run_clients(cluster, clients, max_time=1.0)
    assert clients[0].completed == 30
    assert check_history(history, initial_values=workload.initial_dataset())


@pytest.mark.parametrize("use_wings", [False, True])
def test_replica_rejects_a_message_class_with_no_handler(use_wings):
    class Stray:
        size_bytes = 8

    cluster = Cluster(ClusterConfig(protocol="craq", num_replicas=3, use_wings=use_wings))
    with pytest.raises(SimulationError, match="CraqReplica 1 has no handler for 'Stray'"):
        cluster.replica(1).on_message(0, Stray())


def _recording(obj, name):
    """Wrap ``obj.name`` in an instance attribute that records each call."""
    calls = []
    original = getattr(obj, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    setattr(obj, name, wrapper)
    return calls


def _val(cluster, key):
    """A VAL that a replica handles by creating ``key``'s record (and no more)."""
    return Val(key=key, ts=Timestamp.ZERO, epoch_id=cluster.view.epoch_id)


@pytest.mark.parametrize("use_wings", [False, True])
def test_an_arrival_reaches_its_handler_through_the_transport_that_packed_it(use_wings):
    cluster = Cluster(ClusterConfig(protocol="hermes", num_replicas=3, use_wings=use_wings))
    receiver = cluster.replica(1)
    delivered = _recording(receiver, "on_message")
    if use_wings:
        flushes = _recording(receiver.transport, "flush")
        packet = WingsPacket([(_val(cluster, 7), 20), (_val(cluster, 8), 20)])
        cluster.replica(0).send(1, packet, packet.size_bytes)
        # Sent past the batcher, as membership and 2PC traffic is.
        cluster.replica(0).send(1, _val(cluster, 9), 20)
    else:
        cluster.replica(0).send(1, _val(cluster, 7), 20)
    cluster.sim.run(until=1e-3)
    if use_wings:
        # Every packet, batched or not, is opened by on_message and flushed
        # once, whatever it holds.
        assert len(delivered) == 2 and len(flushes) == 2
        assert receiver.store.peek_record(8) is not None
        assert receiver.store.peek_record(9) is not None
    else:
        # Its own transport: the inbox entry named the table handler.
        assert delivered == []
    assert receiver.store.peek_record(7) is not None


@pytest.mark.parametrize("use_wings", [False, True])
def test_a_message_class_with_no_handler_fails_at_delivery(use_wings):
    class Stray:
        size_bytes = 8

    cluster = Cluster(ClusterConfig(protocol="hermes", num_replicas=3, use_wings=use_wings))
    cluster.replica(0).send(1, Stray(), 8)
    with pytest.raises(SimulationError, match="HermesReplica 1 has no handler for 'Stray'"):
        cluster.sim.run(until=1e-3)


def _send_an_envelope_to_shard_1_on_node_1():
    """Send a VAL from node 0's shard-1 guest to node 1; return node 1's
    host, its shard-1 guest, the VAL, and the host's one inbox entry."""
    cluster = Cluster(ClusterConfig(protocol="hermes", num_replicas=3, shards=2))
    host = cluster.nodes[1]
    guest = cluster.replica(1, shard=1)
    message = _val(cluster, 7)
    cluster.replica(0, shard=1).send(1, message, message.size_bytes)
    (entry,) = host._inbox
    return cluster, host, guest, message, entry


def test_a_shard_envelope_reaches_its_guest_through_the_host():
    cluster, host, guest, message, entry = _send_an_envelope_to_shard_1_on_node_1()
    # Resolved at push: the entry names the guest's table handler for the
    # inner message, so no on_message frame runs at the host or the guest.
    assert entry[4:] == [type(guest).dispatch_table()[Val], (guest, 0, message)]
    at_host = _recording(host, "on_message")
    at_guest = _recording(guest, "on_message")
    cluster.sim.run(until=1e-3)
    assert at_host == [] and at_guest == []
    assert guest.store.peek_record(7) is not None
    assert cluster.replica(1, shard=0).store.peek_record(7) is None


def test_a_sanitized_shard_envelope_goes_through_the_host(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    try:
        cluster, host, guest, message, entry = _send_an_envelope_to_shard_1_on_node_1()
        assert entry[4:6] == [host.on_message, (0, (1, message))]
        at_guest = _recording(guest, "on_message")
        cluster.sim.run(until=1e-3)
        assert at_guest == [(0, message)]
        assert guest.store.peek_record(7) is not None
        assert cluster.replica(1, shard=0).store.peek_record(7) is None
    finally:
        reset_sanitizer()


# ----------------------------------------------------------------- clients
def test_closed_loop_client_completes_all_ops():
    cluster = make_cluster("hermes", 3)
    workload = small_workload(0.2)
    cluster.preload(workload.initial_dataset())
    client = ClosedLoopClient(0, cluster, workload, max_ops=50)
    run_clients(cluster, [client], max_time=1.0)
    assert client.done
    assert client.issued == 50
    assert len(client.results) == 50
    assert all(r.status is OpStatus.OK for r in client.results)


def test_closed_loop_client_one_outstanding_request():
    cluster = make_cluster("hermes", 3)
    workload = small_workload(0.5)
    cluster.preload(workload.initial_dataset())
    client = ClosedLoopClient(0, cluster, workload, max_ops=20)
    run_clients(cluster, [client], max_time=1.0)
    intervals = sorted((r.start_time, r.end_time) for r in client.results)
    for (s1, e1), (s2, _) in zip(intervals, intervals[1:]):
        assert s2 >= e1 - 1e-12


def test_closed_loop_think_time_spaces_requests():
    cluster = make_cluster("hermes", 3)
    workload = small_workload(0.0)
    cluster.preload(workload.initial_dataset())
    client = ClosedLoopClient(0, cluster, workload, max_ops=10, think_time=1e-3)
    run_clients(cluster, [client], max_time=1.0)
    assert cluster.sim.now >= 9e-3


def test_clients_round_robin_over_replicas():
    cluster = make_cluster("hermes", 3)
    workload = small_workload(0.0)
    cluster.preload(workload.initial_dataset())
    clients = [ClosedLoopClient(i, cluster, workload, max_ops=5) for i in range(6)]
    assert {c.replica_id for c in clients} == {0, 1, 2}


def test_open_loop_client_issues_at_rate():
    cluster = make_cluster("hermes", 3)
    workload = small_workload(0.1)
    cluster.preload(workload.initial_dataset())
    client = OpenLoopClient(0, cluster, workload, rate=100_000.0, max_ops=50)
    run_clients(cluster, [client], max_time=1.0)
    assert client.done
    # 50 arrivals at 100k/s take roughly 0.5 ms of simulated time.
    assert 1e-4 < cluster.sim.now < 5e-2


def test_closed_loop_client_resumes_after_bound_node_recovers():
    # Regression: the crashed-node skip used to stall the closed loop
    # forever — RECOVER never restarted the issue chain, so a recovered
    # node stopped receiving submissions for the rest of the run.
    cluster = make_cluster("hermes", 3)
    workload = small_workload(0.3)
    cluster.preload(workload.initial_dataset())
    client = ClosedLoopClient(1, cluster, workload, max_ops=40)
    assert client.replica_id == 1
    crash_time, recover_time = 0.02e-3, 0.06e-3
    cluster.sim.schedule_at(crash_time, cluster.crash, 1)
    cluster.sim.schedule_at(recover_time, cluster.recover, 1)
    # An op in flight at the crash instant may be legitimately lost (no
    # client-level retry), so the run is bounded rather than run-to-done.
    run_clients(cluster, [client], max_time=5e-3, allow_incomplete=True)
    resumed = [
        r
        for r in client.results
        if r.start_time > recover_time and r.status is OpStatus.OK
    ]
    assert resumed, "recovered node never resumed receiving this session's submissions"


def test_client_history_recording_is_linearizable():
    cluster = make_cluster("hermes", 5)
    workload = small_workload(0.4, num_keys=8, seed=12)
    cluster.preload(workload.initial_dataset())
    history = History()
    clients = [
        ClosedLoopClient(i, cluster, workload, max_ops=25, history=history) for i in range(10)
    ]
    run_clients(cluster, clients, max_time=1.0)
    cluster.run(until=cluster.sim.now + 0.01)
    assert len(history.completed()) == 250
    assert check_history(history, initial_values=workload.initial_dataset())


# ------------------------------------------------------- membership service
def test_membership_service_detects_and_reconfigures():
    sim = Simulator()
    network = Network(sim, NetworkConfig(jitter=0.0))

    class Passive(NodeProcess):
        def __init__(self, node_id):
            super().__init__(node_id, sim, network)
            from repro.membership.agent import MembershipAgent

            self.agent = MembershipAgent(
                node_id, view, send=self.send, local_clock=lambda: sim.now
            )

        def on_message(self, src, message):
            self.agent.handle(src, message)

        def on_local_work(self, work):  # pragma: no cover
            pass

    view = MembershipView.initial(range(3))
    nodes = [Passive(n) for n in range(3)]
    service = MembershipService(
        sim,
        network,
        view,
        MembershipConfig(
            lease_duration=10e-3,
            renewal_interval=2e-3,
            detection=FailureDetectorConfig(ping_interval=2e-3, detection_timeout=15e-3),
        ),
    )
    service.start()
    sim.run(until=5e-3)
    nodes[2].crash()
    sim.run(until=0.2)
    assert service.reconfigurations == 1
    assert service.view.members == frozenset({0, 1})
    assert nodes[0].agent.view.epoch_id == 2
    assert nodes[1].agent.view.epoch_id == 2


def test_membership_service_config_validation():
    with pytest.raises(ConfigurationError):
        MembershipConfig(lease_duration=1e-3, renewal_interval=2e-3).validate()
