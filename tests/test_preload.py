"""The preload contract: the replicas of a shard share one read-only dataset
and a replica creates a record only for a key it writes (or needs protocol
state for), one object per key."""

from __future__ import annotations

import enum
import gc

import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.kvs.store import ValueRecord
from repro.types import Operation, OpStatus
from repro.verification.invariants import check_replica_convergence


def _run(cluster, node_id, shard, op):
    done = []
    cluster.replica(node_id, shard).submit(op, lambda o, status, value: done.append((status, value)))
    cluster.run_until(lambda: bool(done), check_interval=1e-5, max_time=0.01)
    return done[0]


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("protocol", ["hermes", "cr", "craq", "zab", "derecho"])
def test_replicas_share_the_preloaded_dataset_until_they_write(protocol, shards):
    cluster = Cluster(ClusterConfig(protocol=protocol, num_replicas=3, shards=shards, seed=5))
    dataset = {key: b"v%d" % key for key in range(16)}
    cluster.preload(dataset)
    replicas = cluster.shard_replicas
    # Read-only walks of every key (the convergence check, the migration
    # copy's committed_value, a join snapshot) create no record either.
    check_replica_convergence(replicas.values())
    for replica in replicas.values():
        if protocol == "hermes":
            replica.export_join_snapshot()
    assert not any(replica.store._records for replica in replicas.values())

    key = 7  # shard 1 of 2: the other shard's replicas must stay untouched
    shard = cluster.shard_router.shard_of(key)
    assert _run(cluster, 1, shard, Operation.read(key)) == (OpStatus.OK, b"v7")
    assert _run(cluster, 1, shard, Operation.write(key, b"new"))[0] is OpStatus.OK
    cluster.run(until=cluster.sim.now + 0.01)
    for (node_id, s), replica in replicas.items():
        assert list(replica.store._records) == ([key] if s == shard else []), (node_id, s)
        if s == shard:
            assert replica.committed_value(key) == b"new"
    assert dataset[key] == b"v7"


def _store_objects(store):
    """The objects a store holds per key: each record, plus any object of
    this library a record refers to that is not an immutable value (an
    enum member or an int such as a packed timestamp)."""
    objects = []
    for record in store._records.values():
        objects.append(record)
        objects.extend(
            obj
            for obj in gc.get_referents(record)
            if type(obj).__module__.startswith("repro.")
            and not isinstance(obj, (enum.Enum, int, type))
        )
    return objects


@pytest.mark.parametrize("protocol", ["hermes", "cr", "craq"])
def test_first_write_at_a_follower_leaves_one_record_object(protocol):
    cluster = Cluster(ClusterConfig(protocol=protocol, num_replicas=3, seed=5))
    cluster.preload({key: b"v%d" % key for key in range(4)})
    # Node 1 follows: Hermes' coordinator is the submitting node 0, and node
    # 1 sits below CR's and CRAQ's head, node 0.
    follower = cluster.replica(1)
    assert _store_objects(follower.store) == []
    assert _run(cluster, 0, 0, Operation.write(2, b"new"))[0] is OpStatus.OK
    cluster.run(until=cluster.sim.now + 0.01)
    [record] = _store_objects(follower.store)
    assert type(record) is type(follower).RECORD is not ValueRecord
    assert follower.store.peek_record(2) is record
    assert follower.committed_value(2) == b"new"
    assert not hasattr(record, "meta")
