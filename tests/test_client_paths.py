"""Client-session paths under think time and crash/recovery, pinned to literals.

No committed ``BENCH_*.json`` crashes the node of an open-loop session or of
an aggregated generator, or runs an aggregated generator in closed mode. The
closed-loop cells (think time with transactions, with and without a recorded
history, and a crash/recovery) give the rest of the session contract a check
that runs in a second. Each cell pins engine events executed, requests
issued/completed, and a digest of every per-op record (in the order the
clients appended them) and of the recorded history (in invocation order).
A client-model change that moves any of them changed the simulation.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional

import pytest

from repro.bench.harness import ExperimentSpec, build_clients, build_cluster, build_workload
from repro.cluster.client import ClientSession, ClosedLoopClient, run_clients
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.failures import FailureEvent, FailureInjector
from repro.verification.history import History
from repro.workloads.distributions import UniformKeys
from repro.workloads.generator import WorkloadMix


def _fingerprint(cluster: Cluster, clients: List[ClientSession], history: Optional[History]):
    """(events executed, issued, completed, record + history digest).

    Op ids come from a process-global counter, so records are keyed by the
    op's rank in id order, not by the id itself.
    """
    records = [r for c in clients for r in c.results]
    invoked = history.operations() if history is not None else []
    ids = sorted({r.op.op_id for r in records} | {h.op.op_id for h in invoked})
    rank = {op_id: index for index, op_id in enumerate(ids)}
    lines = [
        f"{rank[r.op.op_id]},{r.op.op_type.value},{r.op.key!r},{r.value!r},"
        f"{r.start_time:.12f},{r.end_time:.12f},{r.status.value},{r.served_by}"
        for r in records
    ]
    if history is not None:
        lines += [
            f"h{rank[h.op.op_id]},{h.invoke_time:.12f},{h.response_time!r},{h.status}"
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


def _closed_think(record_history: bool):
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
    return _fingerprint(cluster, clients, history)


def _spec_cell(**spec_kwargs):
    """One spec-built cell whose node 0 crashes at 60 us and recovers at 160 us."""
    spec = ExperimentSpec(
        protocol="hermes",
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
        **spec_kwargs,
    )
    cluster = build_cluster(spec)
    workload = build_workload(spec)
    cluster.preload(workload.initial_dataset())
    FailureInjector(cluster, spec.faults).arm()
    history = History()
    clients = build_clients(spec, cluster, workload, history)
    run_clients(cluster, clients, max_time=spec.max_sim_time, allow_incomplete=True)
    return _fingerprint(cluster, clients, history)


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
            lambda: _spec_cell(client_model="closed"),
            (707, 191, 187, "91aca8d91ff45c4b70268fc4b77457da4a408e6e5575e82023083933b0afe134"),
            id="closed-crash-recover",
        ),
        pytest.param(
            lambda: _spec_cell(client_model="open", offered_load=1e6),
            (761, 240, 188, "1829f5c00dfdcc687207777614e8401b473caec2a5b4cc1c37af7f97a8f90058"),
            id="open-crash-recover",
        ),
        pytest.param(
            lambda: _spec_cell(client_model="aggregated", sessions=500, session_think_time=1e-4),
            (727, 288, 268, "852cd75f2dc471cb79e7791bad02cacc047e0afa13f0ffd53f598a5cc0fea8db"),
            id="aggregated-closed-crash-recover",
        ),
        pytest.param(
            lambda: _spec_cell(client_model="aggregated", sessions=10_000, offered_load=1e6),
            (632, 240, 203, "ed61794eaadec40aa2c490173ef9018825ac49b3436d41b920a768e6bfe4a27e"),
            id="aggregated-open-crash-recover",
        ),
    ],
)
def test_client_paths_are_pinned(cell, expected):
    assert cell() == expected
