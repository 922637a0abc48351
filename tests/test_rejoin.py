"""Node re-join with state transfer.

PR 5 left crashed nodes out of the view forever. With
``MembershipConfig(rejoin=True)`` a recovered node re-enters through a
JoinRequest → view change → snapshot copy handshake (see
:mod:`repro.membership.service` and the host-side retry loop in
:mod:`repro.cluster.sharding`). These tests pin the contract: a rejoined
node serves checker-verified traffic again, a crash during the snapshot
copy is cancelled by the join watchdog without hurting cluster liveness
(the retry then succeeds against the shrunken view), and the snapshot
merge never regresses state the joiner replicated after re-admission.
"""

from __future__ import annotations

import pytest

from repro.cluster.client import ClosedLoopClient
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.failures import FailureEvent, FailureInjector
from repro.core.state import KeyState
from repro.core.timestamps import Timestamp
from repro.errors import ConfigurationError
from repro.fuzz import generate_schedule
from repro.fuzz.schedule import FuzzConfig
from repro.membership.detector import FailureDetectorConfig
from repro.membership.service import MembershipConfig
from repro.types import Operation, OpStatus
from repro.verification import check_all
from repro.verification.history import History
from repro.workloads.distributions import UniformKeys
from repro.workloads.generator import WorkloadMix
from tests.conftest import make_cluster


def rejoin_cluster(seed: int = 7, num_replicas: int = 3) -> Cluster:
    membership = MembershipConfig(
        lease_duration=0.040,
        renewal_interval=0.010,
        detection=FailureDetectorConfig(ping_interval=0.010, detection_timeout=0.030),
        rejoin=True,
    )
    return Cluster(
        ClusterConfig(
            protocol="hermes",
            num_replicas=num_replicas,
            shards=2,
            seed=seed,
            run_membership_service=True,
            membership=membership,
        )
    )


def run_rejoin_scenario(
    cluster: Cluster,
    faults,
    until: float,
    late_client_start: float,
    late_client_node: int,
    seed: int = 7,
):
    workload = WorkloadMix(distribution=UniformKeys(60), write_ratio=0.2, seed=seed)
    cluster.preload(workload.initial_dataset())
    history = History()
    live_nodes = [n for n in cluster.node_ids if n != late_client_node]
    clients = [
        ClosedLoopClient(
            i, cluster, workload, max_ops=10**9, think_time=30e-6,
            replica_id=live_nodes[i % len(live_nodes)], history=history,
        )
        for i in range(4)
    ]
    for client in clients:
        client.start()
    # A fresh client pinned to the rejoined node, started only after the
    # join should have completed: every operation it manages to finish was
    # served through the rejoined node and lands in the checked history.
    late_client = ClosedLoopClient(
        99, cluster, workload, max_ops=10**9, think_time=30e-6,
        replica_id=late_client_node, history=history,
    )
    cluster.sim.schedule_at(late_client_start, late_client.start)
    FailureInjector(cluster, faults).arm()
    cluster.run(until=until)
    return workload, history, clients, late_client


@pytest.mark.parametrize("protocol, shards", [("hermes", 1), ("cr", 2), ("craq", 2)])
def test_rejoin_that_cannot_run_is_rejected(protocol, shards):
    # Rejoin is run by the shard host and needs the protocol's join state
    # snapshot: anywhere else a restarted node would silently stay out.
    config = ClusterConfig(
        protocol=protocol,
        shards=shards,
        run_membership_service=True,
        membership=MembershipConfig(rejoin=True),
    )
    with pytest.raises(ConfigurationError, match="rejoin"):
        config.validate()


def test_fuzz_cells_ask_for_rejoin_only_where_it_runs():
    for protocol in ("hermes", "cr", "craq"):
        config = FuzzConfig(protocols=(protocol,), shard_counts=(2,), autoscale_probability=1.0)
        spec = generate_schedule(5, config).to_spec()
        assert spec.membership.autoscale is not None
        assert spec.membership.rejoin is (protocol == "hermes")


def test_rejoined_node_serves_verified_traffic():
    cluster = rejoin_cluster()
    workload, history, clients, late_client = run_rejoin_scenario(
        cluster,
        faults=[FailureEvent.crash(0.060, 2), FailureEvent.recover(0.120, 2)],
        until=0.220,
        late_client_start=0.160,
        late_client_node=2,
    )
    service = cluster.membership_service
    assert service.joins_completed == 1
    assert service.joins_cancelled == 0
    assert 2 in service.view.members
    served = [r for r in late_client.results if r.ok]
    assert served, "rejoined node served no operations"
    assert all(r.status is OpStatus.OK for r in served)
    report = check_all(history, initial_values=workload.initial_dataset())
    assert report.ok, report.violations


def test_crash_during_snapshot_copy_is_cancelled_then_retried():
    # 4 nodes, 2 shards. Node 3 crashes and is evicted; its first rejoin
    # attempt picks node 0 as snapshot source (sorted others [0,1,2], index
    # 3 % 3) — but node 0 crashed just before the recovery, so the snapshot
    # never arrives: the join watchdog cancels the attempt, failure
    # handling then evicts node 0, and the joiner's retry succeeds against
    # the two-node view with a live source.
    cluster = rejoin_cluster(num_replicas=4)
    workload, history, clients, late_client = run_rejoin_scenario(
        cluster,
        faults=[
            FailureEvent.crash(0.040, 3),
            FailureEvent.crash(0.085, 0),
            FailureEvent.recover(0.090, 3),
        ],
        until=0.300,
        late_client_start=0.240,
        late_client_node=3,
    )
    service = cluster.membership_service
    assert service.joins_cancelled >= 1
    assert service.joins_completed == 1
    assert 3 in service.view.members
    assert 0 not in service.view.members
    # Liveness: the stalled join must not wedge the cluster. Writes block
    # while the crashed source is undetected (failure handling is
    # serialized behind the join), but once the watchdog cancels and the
    # eviction goes through, the survivors resume serving.
    resumed_ops = [
        r
        for c in clients
        for r in c.results
        if r.ok and 0.170 <= r.end_time
    ]
    assert resumed_ops, "cluster never resumed after the cancelled join"
    served = [r for r in late_client.results if r.ok]
    assert served, "rejoined node served no operations after the retry"
    report = check_all(history, initial_values=workload.initial_dataset())
    assert report.ok, report.violations


def test_apply_join_snapshot_is_timestamp_guarded():
    cluster = make_cluster(num_replicas=3)
    cluster.preload({"k": "v0", "stale": "s0"})
    done = []
    cluster.replica(0).submit(
        Operation.write("k", "live"), lambda o, s, v: done.append(s)
    )
    cluster.run(until=0.002)
    assert done == [OpStatus.OK]
    replica = cluster.replica(1)
    current = replica.key_timestamp("k")
    assert current.version > 0

    # A snapshot carrying an older timestamp must not regress the value...
    replica.apply_join_snapshot(
        [("k", "old", max(current.version - 1, 0), 0, True, False)]
    )
    assert replica.store.get("k") == "live"
    assert replica.key_timestamp("k") == current
    # ...a strictly newer one is adopted...
    replica.apply_join_snapshot([("k", "newer", current.version + 1, 5, True, False)])
    assert replica.store.get("k") == "newer"
    assert replica.key_timestamp("k") == Timestamp(version=current.version + 1, cid=5)
    # ...and an equal timestamp only promotes Invalid → Valid (a VAL the
    # joiner missed), never changes the value.
    record = replica._record("stale")
    stale_ts = record.timestamp
    record.transition(KeyState.INVALID)
    replica.apply_join_snapshot(
        [("stale", "ignored", stale_ts.version, stale_ts.cid, True, False)]
    )
    assert replica.store.get("stale") == "s0"
    assert replica.key_state("stale") is KeyState.VALID
