"""Client-session paths under think time and crash/recovery, pinned to literals.

No committed ``BENCH_*.json`` crashes the node of an open-loop session or of
an aggregated generator, or runs an aggregated generator in closed mode. The
closed-loop cells (think time with transactions, with and without a recorded
history, and a crash/recovery) give the rest of the session contract a check
that runs in a second. Each cell pins engine events executed, requests
issued/completed, and a digest of every per-op record (in the order the
clients appended them) and of the recorded history (in invocation order).
A client-model change that moves any of them changed the simulation.

The same recipe pins the four protocols that serialize updates through one
orderer (CR, CRAQ, ZAB, Derecho): closed loops with a recorded history at
S=1 and at S=2 (coupled), and a crash of the orderer under the RM service,
after which the chain head, leader or sequencer moves to a survivor.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional

import pytest

from repro.bench.harness import ExperimentSpec, build_clients, build_cluster, build_workload
from repro.cluster.client import ClientSession, ClosedLoopClient, run_clients
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.failures import FailureEvent, FailureInjector
from repro.membership.detector import FailureDetectorConfig
from repro.membership.service import MembershipConfig
from repro.verification.history import History
from repro.workloads.distributions import UniformKeys
from repro.workloads.generator import WorkloadMix


def _fingerprint(cluster: Cluster, clients: List[ClientSession], history: Optional[History]):
    """(events executed, issued, completed, record + history digest).

    Op ids come from a process-global counter, so records are keyed by the
    op's rank in id order, not by the id itself.
    """
    records = [(r, c.replica_id) for c in clients for r in c.results]
    invoked = history.operations() if history is not None else []
    ids = sorted({r.op_id for r, _ in records} | {h.op_id for h in invoked})
    rank = {op_id: index for index, op_id in enumerate(ids)}
    # Each record prints the replica that served it: its session's bound one.
    lines = [
        f"{rank[r.op_id]},{r.op_type.value},{r.key!r},{r.value!r},"
        f"{r.start_time:.12f},{r.end_time:.12f},{r.status.value},{replica_id}"
        for r, replica_id in records
    ]
    if history is not None:
        # An undecided record (pending or TIMEOUT) prints as no response.
        lines += [
            f"h{rank[h.op_id]},{h.start_time:.12f},"
            f"{h.end_time if h.completed else None!r},{h.status if h.completed else None}"
            for h in invoked
        ]
        lines += [
            f"t{','.join(str(rank[op.op_id]) for op in t.txn.ops)},"
            f"{t.invoke_time:.12f},{t.response_time!r},{t.status}"
            for t in history.transactions()
        ]
    return (
        cluster.sim.events_executed,
        sum(c.issued for c in clients),
        sum(c.completed for c in clients),
        hashlib.sha256("\n".join(lines).encode()).hexdigest(),
    )


def _closed_think_run(record_history: bool):
    """Closed loops with think time on a 2-shard coupled host with txns."""
    cluster = Cluster(ClusterConfig(protocol="hermes", num_replicas=3, shards=2, seed=5))
    workload = WorkloadMix(
        distribution=UniformKeys(60),
        write_ratio=0.3,
        seed=5,
        txn_fraction=0.2,
        txn_keys=2,
        txn_cross_shard=0.5,
        txn_num_shards=2,
    )
    cluster.preload(workload.initial_dataset())
    history = History() if record_history else None
    clients = [
        ClosedLoopClient(
            i, cluster, workload, max_ops=25, think_time=15e-6, replica_id=i % 3, history=history
        )
        for i in range(6)
    ]
    run_clients(cluster, clients, max_time=1.0)
    return cluster, clients, history


def _closed_think(record_history: bool):
    return _fingerprint(*_closed_think_run(record_history))


#: Membership timing that detects a crash and installs the next view within
#: a few hundred simulated microseconds, well inside a cell's 2 ms budget.
_FAST_MEMBERSHIP = MembershipConfig(
    lease_duration=200e-6,
    renewal_interval=50e-6,
    detection=FailureDetectorConfig(ping_interval=50e-6, detection_timeout=200e-6),
)


def _spec_run(protocol: str, **overrides):
    """One spec-built cell; by default node 0 crashes at 60 us and recovers at 160 us."""
    fields = dict(
        protocol=protocol,
        num_replicas=3,
        num_keys=60,
        write_ratio=0.2,
        clients_per_replica=2,
        ops_per_client=40,
        shards=2,
        txn_fraction=0.1,
        txn_cross_shard=0.5,
        seed=17,
        record_history=True,
        faults=(FailureEvent.crash(60e-6, 0), FailureEvent.recover(160e-6, 0)),
        allow_incomplete=True,
        max_sim_time=2e-3,
    )
    fields.update(overrides)
    spec = ExperimentSpec(**fields)
    cluster = build_cluster(spec)
    workload = build_workload(spec)
    cluster.preload(workload.initial_dataset())
    FailureInjector(cluster, spec.faults).arm()
    history = History()
    clients = build_clients(spec, cluster, workload, history)
    run_clients(cluster, clients, max_time=spec.max_sim_time, allow_incomplete=True)
    if spec.membership is not None:
        # The crashed node 0 left the view, so every shard's orderer (chain
        # head, leader or sequencer) that it held has moved to a survivor.
        assert sorted(cluster.replica(1).view.members) == [1, 2]
    return cluster, clients, history


def _spec_cell(protocol: str, **overrides):
    return _fingerprint(*_spec_run(protocol, **overrides))


def _orderer_crash(protocol: str):
    """Node 0, shard 0's orderer, crashes for good under the RM service."""
    return _spec_cell(
        protocol,
        faults=(FailureEvent.crash(60e-6, 0),),
        membership=_FAST_MEMBERSHIP,
    )


@pytest.mark.parametrize(
    "cell, expected",
    [
        pytest.param(
            lambda: _closed_think(record_history=False),
            (839, 150, 150, "c7abbec51baed92393f6c29c8b0aea029412636d8929f186946cbd7f3742c390"),
            id="closed-think",
        ),
        pytest.param(
            lambda: _closed_think(record_history=True),
            (825, 150, 150, "3c4984208a734ba3a3649c5bd0c5a18987d599bed0994f8c9fbcd64ecf5e510d"),
            id="closed-think-history",
        ),
        pytest.param(
            lambda: _spec_cell("hermes", client_model="closed"),
            (707, 191, 187, "91aca8d91ff45c4b70268fc4b77457da4a408e6e5575e82023083933b0afe134"),
            id="closed-crash-recover",
        ),
        pytest.param(
            lambda: _spec_cell("hermes", client_model="open", offered_load=1e6),
            (761, 240, 188, "1829f5c00dfdcc687207777614e8401b473caec2a5b4cc1c37af7f97a8f90058"),
            id="open-crash-recover",
        ),
        pytest.param(
            lambda: _spec_cell(
                "hermes", client_model="aggregated", sessions=500, session_think_time=1e-4
            ),
            (727, 288, 268, "852cd75f2dc471cb79e7791bad02cacc047e0afa13f0ffd53f598a5cc0fea8db"),
            id="aggregated-closed-crash-recover",
        ),
        pytest.param(
            lambda: _spec_cell(
                "hermes", client_model="aggregated", sessions=10_000, offered_load=1e6
            ),
            (632, 240, 203, "ed61794eaadec40aa2c490173ef9018825ac49b3436d41b920a768e6bfe4a27e"),
            id="aggregated-open-crash-recover",
        ),
        pytest.param(
            lambda: _spec_cell("cr", shards=1, faults=()),
            (1084, 240, 240, "33da1271d41abd2c84c805790619bee1b5bc6631c8788a6b8f3631983fb1a47d"),
            id="cr-closed-s1",
        ),
        pytest.param(
            lambda: _spec_cell("cr", faults=()),
            (1152, 240, 240, "58c091aca638ab650a77c3e5d1a10f3046862dda29afc96a071657e7f56d1a83"),
            id="cr-closed-s2",
        ),
        pytest.param(
            lambda: _orderer_crash("cr"),
            (708, 75, 69, "f1ebf8b23b6d20b086f2a9c598faa6e1ed0fa089844d97680fa7126ff5b2883a"),
            id="cr-orderer-crash",
        ),
        pytest.param(
            lambda: _spec_cell("craq", shards=1, faults=()),
            (872, 240, 240, "ea1363083b823d4704b7823100432c97e3f15c82ef08f8019aa70c0858547e9a"),
            id="craq-closed-s1",
        ),
        pytest.param(
            lambda: _spec_cell("craq", faults=()),
            (887, 240, 240, "96100cfa373dc7bbbc86d0596e6f5aaf8e0986ef7399fb665345f18bfd9d344f"),
            id="craq-closed-s2",
        ),
        pytest.param(
            lambda: _orderer_crash("craq"),
            (1027, 183, 180, "9e142e640f309fbe3241b0e97460a9bacbe0c2edc3e271deb51f2a3444327931"),
            id="craq-orderer-crash",
        ),
        pytest.param(
            lambda: _spec_cell("zab", shards=1, faults=()),
            (924, 240, 240, "9ff240af20f7c92c2efc4897b52f1c6a0d0f72466bdd3a2c809168f884b7cbcb"),
            id="zab-closed-s1",
        ),
        pytest.param(
            lambda: _spec_cell("zab", faults=()),
            (914, 240, 240, "6a37d6e8eb77251ccf8feb0de454c9b37ff53ec94585bc642293b9d6dfd5b94f"),
            id="zab-closed-s2",
        ),
        pytest.param(
            lambda: _orderer_crash("zab"),
            (954, 157, 151, "8e55d96da317bd86277113f2002e445653bc9bc4af1ed66c3d2b89137e9cf4e4"),
            id="zab-orderer-crash",
        ),
        pytest.param(
            lambda: _spec_cell("derecho", shards=1, faults=()),
            (945, 240, 240, "c3bd8fc64f53c4a627e2ab4560a65b883d29f21359728f6f1687efff27abfd19"),
            id="derecho-closed-s1",
        ),
        pytest.param(
            lambda: _spec_cell("derecho", faults=()),
            (950, 240, 240, "e2ae2c993306e3595054e753a6764e4fe3d685aa1fe4af3367c23bbf88ac1500"),
            id="derecho-closed-s2",
        ),
        pytest.param(
            lambda: _orderer_crash("derecho"),
            (868, 135, 129, "d0f35fa593e52c05c51eaa940228169d704d6dfc1e64d49eb8a49d44178d61dd"),
            id="derecho-orderer-crash",
        ),
        pytest.param(
            lambda: _spec_cell("hermes", shards=1, faults=(), use_wings=True),
            (1162, 240, 240, "e9c91ff8e444948dd8a6a50fd28159f63f2efa18ebd57193d488b2a9fe7dff33"),
            id="wings-closed-s1",
        ),
        pytest.param(
            lambda: _spec_cell("hermes", client_model="closed", use_wings=True),
            (883, 191, 187, "e84a848493d94719f1703a95bd70c104b2af9ee92ac7aca646bb2ac858a46787"),
            id="wings-txn-crash-recover",
        ),
        pytest.param(
            lambda: _spec_cell(
                "hermes",
                faults=(FailureEvent.crash(60e-6, 0),),
                        membership=_FAST_MEMBERSHIP,
                use_wings=True,
            ),
            (1284, 208, 206, "98d3763132458c39806921f765c2ae339c3b89f8042c48e02a297c20aae93396"),
            id="wings-membership-crash",
        ),
        pytest.param(
            lambda: _spec_cell(
                "cr",
                faults=(FailureEvent.crash(60e-6, 0),),
                        membership=_FAST_MEMBERSHIP,
                use_wings=True,
            ),
            (832, 74, 68, "3101148a368b04775423ff26feecedde369008265a4fc125a0693ef96a6d427d"),
            id="wings-cr-orderer-crash",
        ),
    ],
)
def test_client_paths_are_pinned(cell, expected):
    assert cell() == expected


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(lambda: _closed_think_run(record_history=True), id="closed-txn-s2"),
        pytest.param(
            lambda: _spec_run("hermes", client_model="open", offered_load=1e6), id="open"
        ),
        pytest.param(
            lambda: _spec_run(
                "hermes", client_model="aggregated", sessions=10_000, offered_load=1e6
            ),
            id="aggregated",
        ),
    ],
)
def test_history_indexes_the_clients_own_records(run):
    # One record per operation: the history holds the very objects the
    # clients return, pending ones (lost to the crash) included.
    _cluster, clients, history = run()
    records = history.operations()
    held = {record.op.op_id: record for record in records}
    assert len(held) == len(records)
    results = [r for c in clients for r in c.results]
    assert results and len({r.op.op_id for r in results}) == len(results)
    assert all(held[r.op.op_id] is r for r in results)
