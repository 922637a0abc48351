"""Shard-aware membership: one per-node RM stack serving all co-hosted shards.

Covers the reconfiguration paths the unsharded membership tests cannot:

* view installation fans out to every shard replica on a node (shared
  per-node agent), and each shard's rotated role ring recomputes
  consistently under the new view;
* a crash on a sharded cluster reconfigures end to end through the RM
  service (detection → lease expiry → Paxos → m-update);
* a recovered node stays outside the view (no silent rejoin);
* the scenario is deterministic (identical artifacts across repeated runs),
  and the lock-master crash run of ``--figure 9 --shards 2`` is pinned by
  its artifact digest;
* the runner CLI rejects membership/view-change scenarios combined with
  parallel shard execution with a clear error instead of a deep traceback.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.bench.experiments import figure_9_failure
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.failures import FailureEvent, FailureInjector
from repro.membership.detector import FailureDetectorConfig
from repro.membership.service import MembershipConfig
from repro.types import Operation, OpStatus


def sharded_membership_cluster(
    protocol: str = "hermes", num_replicas: int = 5, shards: int = 4, seed: int = 7
) -> Cluster:
    membership = MembershipConfig(
        lease_duration=0.040,
        renewal_interval=0.010,
        detection=FailureDetectorConfig(ping_interval=0.010, detection_timeout=0.100),
    )
    return Cluster(
        ClusterConfig(
            protocol=protocol,
            num_replicas=num_replicas,
            shards=shards,
            seed=seed,
            run_membership_service=True,
            membership=membership,
        )
    )


def test_crash_reconfigures_every_shard_replica():
    cluster = sharded_membership_cluster()
    FailureInjector(cluster, [FailureEvent.crash(0.020, 3)]).arm()
    cluster.run(until=0.400)
    service = cluster.membership_service
    assert service.reconfigurations == 1
    assert service.view.members == frozenset({0, 1, 2, 4})
    for node_id, host in cluster.nodes.items():
        if node_id == 3:
            continue
        assert host.membership_agent.view.epoch_id == 2
        for replica in host.shard_replicas:
            # The shared agent updated every guest's view object.
            assert replica.view is host.membership_agent.view
            assert 3 not in replica.peers()


def test_role_rings_recompute_consistently_across_shards():
    cluster = sharded_membership_cluster(protocol="zab", num_replicas=5, shards=4)
    rings_before = {
        (n, s): cluster.shard_replicas[(n, s)].role_ring()
        for n in range(5)
        for s in range(4)
        if n != 1
    }
    FailureInjector(cluster, [FailureEvent.crash(0.020, 1)]).arm()
    cluster.run(until=0.400)
    for (n, s), before in rings_before.items():
        ring = cluster.shard_replicas[(n, s)].role_ring()
        assert 1 not in ring
        assert ring != before
        # All surviving replicas of one shard agree on the rotated ring.
        assert ring == cluster.shard_replicas[(0 if n else 2, s)].role_ring()


def test_recovered_node_stays_outside_the_view():
    cluster = sharded_membership_cluster()
    FailureInjector(
        cluster, [FailureEvent.crash(0.020, 3), FailureEvent.recover(0.300, 3)]
    ).arm()
    cluster.run(until=0.400)
    # The node is alive again but was removed from the view: its replicas
    # must refuse to serve.
    replica = cluster.shard_replicas[(3, 3)]
    assert not replica.crashed
    assert not replica.is_operational()
    seen = []
    replica.submit(Operation.read(3), lambda o, s, v: seen.append(s))
    cluster.run_until(lambda: bool(seen), check_interval=1e-5, max_time=cluster.sim.now + 0.02)
    assert seen == [OpStatus.UNAVAILABLE]


def test_sharded_figure9_scenario_is_deterministic():
    kwargs = dict(
        shards=2,
        num_replicas=3,
        num_keys=120,
        crash_time=0.030,
        detection_timeout=0.060,
        total_time=0.180,
        clients_per_replica=2,
        seed=11,
    )
    first = figure_9_failure(**kwargs)
    second = figure_9_failure(**kwargs)
    assert first.data == second.data
    assert first.rows == second.rows
    assert first.data["linearizable"] and first.data["txn_check_ok"]
    assert len(first.data["reconfiguration_times"]) == 1


#: sha256 of ``BENCH_fig9.json`` from ``python -m repro.bench.runner
#: --figure 9 --shards 2 --scale smoke``: node 1, shard 1's lock master,
#: crashes at 60 ms with 2PC transactions in flight. The run is
#: deterministic, so any change to the transaction layer's messages,
#: timeouts or outcomes moves this digest.
SHARDED_FIG9_SMOKE_SHA256 = "59aa81e51a90ba3e553f650c691a758bd71317ff389746d51466e5dc811875b4"


def test_sharded_figure9_lock_master_crash_artifact_is_pinned(tmp_path):
    from repro.bench.runner import main

    argv = ["--figure", "9", "--shards", "2", "--scale", "smoke", "--jobs", "1"]
    assert main(argv + ["--output-dir", str(tmp_path), "--quiet"]) == 0
    payload = (tmp_path / "BENCH_fig9.json").read_bytes()
    data = json.loads(payload)["results"][0]["data"]
    assert data["crash_time"] == 0.06
    assert (data["txns_committed"], data["txns_aborted"], data["txns_timedout"]) == (
        2406,
        260,
        21,
    )
    assert data["linearizable"] and data["txn_check_ok"]
    assert hashlib.sha256(payload).hexdigest() == SHARDED_FIG9_SMOKE_SHA256


def test_runner_cli_rejects_parallel_membership_figures():
    from repro.bench.runner import main

    with pytest.raises(SystemExit) as exit_info:
        main(
            [
                "--figure",
                "9",
                "--shards",
                "2",
                "--shard-mode",
                "parallel",
                "--no-artifacts",
                "--quiet",
            ]
        )
    assert exit_info.value.code == 2  # argparse error, not a traceback
