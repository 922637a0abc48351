"""What a finished run keeps alive per completed operation, in host units.

An operation is its own record (:class:`repro.types.Operation`): the client
session stamps and fills in the object the workload generated, keeps it in
``results`` and, with a recorded history, indexes that same object. These
gates hold a small closed-loop Hermes cell to that in counts and bytes, not
in wall-clock numbers, so they read the same on any machine.
"""

from __future__ import annotations

import gc
import tracemalloc
from collections import Counter

from repro.bench.harness import ExperimentSpec, build_clients, build_cluster, build_workload
from repro.cluster.client import run_clients

#: 12k operations, 5% writes over 1000 uniform keys: the read-heavy shape.
_SPEC = ExperimentSpec(
    protocol="hermes",
    num_replicas=3,
    num_keys=1000,
    clients_per_replica=4,
    ops_per_client=1000,
    write_ratio=0.05,
    seed=3,
)

#: tracemalloc bytes still allocated per completed operation when the run
#: returns. This cell measures ~208 B: the operation (112 B), its op id
#: (28 B), its end time (24 B), its ``results`` slot, and its share of the
#: written values and store records. With a second record object per
#: operation and a fresh ``int`` key per draw it measured ~279 B.
MAX_RETAINED_BYTES_PER_OP = 240


def _prepared_cell():
    cluster = build_cluster(_SPEC)
    workload = build_workload(_SPEC)
    cluster.preload(workload.initial_dataset())
    return cluster, build_clients(_SPEC, cluster, workload, None)


def _run(cluster, clients) -> int:
    run_clients(cluster, clients, max_time=_SPEC.max_sim_time)
    completed = sum(client.completed for client in clients)
    assert completed == _SPEC.num_replicas * _SPEC.clients_per_replica * _SPEC.ops_per_client
    return completed


def test_one_object_per_completed_operation():
    cluster, clients = _prepared_cell()
    gc.collect()
    before = Counter(type(obj).__name__ for obj in gc.get_objects())
    completed = _run(cluster, clients)
    gc.collect()
    grown = Counter(type(obj).__name__ for obj in gc.get_objects())
    grown.subtract(before)
    assert grown["Operation"] == completed
    # Everything else the run left behind is bounded by the key space and
    # the deployment (store records, timestamps, armed timers), not by the
    # operation count.
    per_op = {name: count for name, count in grown.items() if name != "Operation"}
    assert max(per_op.values()) < completed // 4, per_op


def test_retained_bytes_per_completed_operation():
    cluster, clients = _prepared_cell()
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        completed = _run(cluster, clients)
        retained = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert retained / completed <= MAX_RETAINED_BYTES_PER_OP
