"""What a finished run keeps alive per completed operation, in host units.

An operation is its own record (:class:`repro.types.Operation`): the client
session stamps and fills in the object the workload generated, keeps it in
``results`` and, with a recorded history, indexes that same object. These
gates hold a small closed-loop Hermes cell to that in counts and bytes, not
in wall-clock numbers, so they read the same on any machine.
"""

from __future__ import annotations

import gc
import random
import tracemalloc
from collections import Counter
from types import MappingProxyType
from unittest import mock

import pytest

from repro.analysis import stats
from repro.analysis.stats import LatencySummary, latency_summary
from repro.bench.harness import ExperimentSpec, build_clients, build_cluster, build_workload
from repro.cluster.client import run_clients
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.types import Operation, OpStatus

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


#: tracemalloc peak while summarizing 200k records: one chunk of latencies,
#: the values inside the percentile windows (8 B each) and the few bins
#: selected among them; ~0.42 MiB on the log-uniform records below. Sorting
#: a list of every latency peaked at 6.9 MiB there.
MAX_SUMMARY_PEAK_BYTES = 1 << 20


def _summarized_records(start, latency):
    """200k records, 5% of them writes, from ``start(rng)`` to
    ``start + latency(rng)``."""
    rng = random.Random(3)
    records = []
    for i in range(200_000):
        op = Operation.write(i, 1) if i % 20 == 0 else Operation.read(i)
        op.status = OpStatus.OK
        op.start_time = start(rng)
        op.end_time = op.start_time + latency(rng)
        records.append(op)
    return records


@pytest.mark.parametrize(
    "start, latency, walks",
    [
        # Log-uniform over 1 us-10 ms: one walk over the records.
        (random.Random.random, lambda rng: 10.0 ** rng.uniform(-6, -2), 1),
        # Two values, each on half the records: the percentile windows would
        # keep every latency, so the first pass drops them; one more walk
        # histograms the records and six refine the two values' bins down
        # to their exact bit patterns.
        (lambda rng: 0.0, lambda rng: rng.choice((2.5e-6, 5e-6)), 8),
    ],
    ids=["log-uniform", "two-values"],
)
def test_latency_summary_keeps_no_per_record_list(start, latency, walks):
    records = _summarized_records(start, latency)
    latencies = sorted(r.latency for r in records)
    expected = LatencySummary(
        count=len(records),
        mean=sum(r.latency for r in records) / len(records),
        median=stats._percentile_sorted(latencies, 0.50),
        p95=stats._percentile_sorted(latencies, 0.95),
        p99=stats._percentile_sorted(latencies, 0.99),
        maximum=latencies[-1],
    )
    del latencies
    gc.collect()
    with mock.patch.object(stats, "_latency_chunks", wraps=stats._latency_chunks) as walked:
        tracemalloc.start()
        try:
            summary = latency_summary(records)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert summary == expected
    assert peak <= MAX_SUMMARY_PEAK_BYTES, peak
    assert walked.call_count == walks


def test_preload_shares_the_callers_dataset_on_one_shard():
    dataset = {key: b"v%d" % key for key in range(64)}
    cluster = Cluster(ClusterConfig(protocol="hermes", num_replicas=3, seed=5))
    cluster.preload(dataset)
    for replica in cluster.all_replicas():
        base = replica.store.base
        assert isinstance(base, MappingProxyType) and base == dataset
        with pytest.raises(TypeError):
            base[0] = b"x"
        # A read-only view of the very dict the caller passed: no copy.
        assert gc.get_referents(base)[0] is dataset

    sharded = Cluster(ClusterConfig(protocol="hermes", num_replicas=3, shards=2, seed=5))
    sharded.preload(dataset)
    shard_of = sharded.shard_router.shard_of
    partitions = {}
    for (_, shard), replica in sharded.shard_replicas.items():
        [partition] = gc.get_referents(replica.store.base)
        assert partitions.setdefault(shard, partition) is partition, "one dict per shard"
        assert all(shard_of(key) == shard for key in partition)
    assert sorted(partitions) == [0, 1]
    assert sum(len(partition) for partition in partitions.values()) == len(dataset)
    assert {k: v for p in partitions.values() for k, v in p.items()} == dataset
