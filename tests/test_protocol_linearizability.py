"""End-to-end consistency checks for every protocol, with and without faults.

These are the library's analogue of the paper's TLA+ model checking: run
concrete workloads (including adversarial network conditions and crashes),
record the client-visible history, and verify per-key linearizability plus
replica convergence.
"""

from __future__ import annotations

import pytest

from repro.cluster.client import ClosedLoopClient, run_clients
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.failures import FailureEvent, FailureInjector
from repro.core.config import HermesConfig
from repro.errors import VerificationError
from repro.sim.network import NetworkConfig
from repro.types import OpStatus
from repro.verification.history import History
from repro.verification.invariants import (
    check_no_pending_updates,
    check_replica_convergence,
    check_values_from_history,
)
from repro.verification.linearizability import check_history
from tests.conftest import small_workload


def run_workload(cluster, workload, clients=6, ops=30, max_time=2.0):
    cluster.preload(workload.initial_dataset())
    history = History()
    sessions = [
        ClosedLoopClient(i, cluster, workload, max_ops=ops, history=history)
        for i in range(clients)
    ]
    run_clients(cluster, sessions, max_time=max_time)
    cluster.run(until=cluster.sim.now + 0.02)
    return history, sessions


@pytest.mark.parametrize("protocol", ["hermes", "craq", "cr", "derecho"])
def test_protocol_history_is_linearizable_under_contention(protocol):
    cluster = Cluster(ClusterConfig(protocol=protocol, num_replicas=3, seed=21))
    workload = small_workload(write_ratio=0.5, num_keys=6, seed=21)
    history, sessions = run_workload(cluster, workload)
    assert all(s.done for s in sessions)
    assert check_history(history, initial_values=workload.initial_dataset())
    check_replica_convergence(cluster.all_replicas())


@pytest.mark.parametrize("protocol", ["hermes", "craq", "zab", "cr", "derecho"])
def test_replicas_converge_after_quiescence(protocol):
    cluster = Cluster(ClusterConfig(protocol=protocol, num_replicas=5, seed=4))
    workload = small_workload(write_ratio=0.3, num_keys=10, seed=4)
    history, _ = run_workload(cluster, workload, clients=10, ops=20)
    check_replica_convergence(cluster.all_replicas())
    check_values_from_history(
        cluster.all_replicas(), history, initial_dataset=workload.initial_dataset()
    )


def test_convergence_checks_read_craq_committed_state():
    """CRAQ keeps committed values in its per-key version map and never
    rewrites the raw record value after preload, so both checks must read
    ``committed_value``: a corrupted committed version has to be caught."""
    cluster = Cluster(ClusterConfig(protocol="craq", num_replicas=5, seed=4))
    workload = small_workload(write_ratio=0.3, num_keys=10, seed=4)
    history, _ = run_workload(cluster, workload, clients=10, ops=20)
    record = cluster.replica(4).store.record(sorted(workload.initial_dataset())[0])
    record.versions[record.committed_version] = b"CORRUPT"
    with pytest.raises(VerificationError):
        check_replica_convergence(cluster.all_replicas())
    with pytest.raises(VerificationError):
        check_values_from_history(
            cluster.all_replicas(), history, initial_dataset=workload.initial_dataset()
        )


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("protocol", ["hermes", "craq", "cr", "zab", "derecho"])
def test_wings_transport_serves_every_protocol(protocol, shards):
    """Every protocol runs over Wings batching, sharded or not: each message
    a packet carries reaches its handler through the replica's one table."""
    cluster = Cluster(
        ClusterConfig(protocol=protocol, num_replicas=3, shards=shards, use_wings=True, seed=21)
    )
    workload = small_workload(write_ratio=0.5, num_keys=6, seed=21)
    history, sessions = run_workload(cluster, workload)
    assert all(s.done for s in sessions)
    if protocol in ("hermes", "craq", "cr"):
        # zab and derecho serve sequentially consistent local reads.
        assert check_history(history, initial_values=workload.initial_dataset())
    check_replica_convergence(cluster.all_replicas())


def test_zab_reads_are_sequentially_consistent_not_linearizable():
    """ZAB's local reads may return stale values (the paper evaluates it in
    its weaker, faster mode); the history need not be linearizable, but
    replicas must still converge."""
    cluster = Cluster(ClusterConfig(protocol="zab", num_replicas=3, seed=8))
    workload = small_workload(write_ratio=0.5, num_keys=4, seed=8)
    history, sessions = run_workload(cluster, workload)
    assert all(s.done for s in sessions)
    check_replica_convergence(cluster.all_replicas())


def test_hermes_linearizable_under_message_loss_and_reordering():
    cluster = Cluster(
        ClusterConfig(
            protocol="hermes",
            num_replicas=3,
            seed=33,
            network=NetworkConfig(loss_rate=0.05, duplicate_rate=0.05, reorder_rate=0.3),
            hermes=HermesConfig(mlt=200e-6),
        )
    )
    workload = small_workload(write_ratio=0.5, num_keys=5, seed=33)
    history, sessions = run_workload(cluster, workload, clients=6, ops=30, max_time=5.0)
    assert all(s.done for s in sessions)
    assert check_history(history, initial_values=workload.initial_dataset())
    check_replica_convergence(cluster.all_replicas())
    check_no_pending_updates(cluster.all_replicas())


def test_hermes_linearizable_with_rmws_in_the_mix():
    cluster = Cluster(ClusterConfig(protocol="hermes", num_replicas=3, seed=17))
    workload = small_workload(write_ratio=0.6, num_keys=4, seed=17)
    workload.rmw_ratio = 0.5
    history, sessions = run_workload(cluster, workload)
    assert all(s.done for s in sessions)
    assert check_history(history, initial_values=workload.initial_dataset())


def test_hermes_linearizable_across_a_crash_and_reconfiguration():
    from repro.membership.detector import FailureDetectorConfig
    from repro.membership.service import MembershipConfig

    cluster = Cluster(
        ClusterConfig(
            protocol="hermes",
            num_replicas=5,
            seed=29,
            run_membership_service=True,
            membership=MembershipConfig(
                lease_duration=5e-3,
                renewal_interval=1e-3,
                detection=FailureDetectorConfig(ping_interval=1e-3, detection_timeout=8e-3),
            ),
        )
    )
    workload = small_workload(write_ratio=0.3, num_keys=8, seed=29)
    cluster.preload(workload.initial_dataset())
    history = History()
    # Clients only on surviving replicas so every session eventually finishes.
    sessions = [
        ClosedLoopClient(i, cluster, workload, max_ops=40, history=history, replica_id=i % 4)
        for i in range(8)
    ]
    FailureInjector(cluster, [FailureEvent.crash(2e-3, 4)]).arm()
    for session in sessions:
        session.start()
    cluster.run_until(
        lambda: all(s.done for s in sessions), check_interval=1e-3, max_time=2.0
    )
    cluster.run(until=cluster.sim.now + 0.02)
    completed = [r for s in sessions for r in s.results]
    assert all(r.status is OpStatus.OK for r in completed)
    assert check_history(history, initial_values=workload.initial_dataset())
    check_replica_convergence(cluster.all_replicas())
