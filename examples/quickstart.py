#!/usr/bin/env python3
"""Quickstart: a five-node Hermes deployment serving reads and writes.

Builds the paper's default deployment (five replicas), writes a handful of
keys from different coordinators, reads them back from other replicas, and
prints the per-key protocol state — demonstrating local reads, decentralized
writes and the invalidation-based commit flow.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import Cluster, ClusterConfig, Operation, OpStatus


def main() -> None:
    cluster = Cluster(ClusterConfig(protocol="hermes", num_replicas=5, seed=42))
    cluster.preload({f"user:{i}": f"initial-{i}" for i in range(5)})

    completions = []

    def on_complete(op, status, value):
        completions.append((op, status, value))

    # Writes can be coordinated by any replica (decentralized writes).
    print("== issuing writes from different coordinators ==")
    for i in range(5):
        coordinator = cluster.replica(i)
        coordinator.submit(Operation.write(f"user:{i}", f"value-from-node-{i}"), on_complete)
    cluster.run(until=0.001)

    for op, status, value in completions:
        assert status is OpStatus.OK
        print(f"  write {op.key!r} = {op.payload!r} committed")

    # Reads are served locally by every replica.
    print("\n== reading each key from a different replica ==")
    completions.clear()
    for i in range(5):
        reader = cluster.replica((i + 2) % 5)
        reader.submit(Operation.read(f"user:{i}"), on_complete)
    cluster.run(until=0.002)
    for op, status, value in completions:
        print(f"  read  {op.key!r} -> {value!r} (status={status.value})")

    # A compare-and-swap RMW, e.g. acquiring a lease on a key.
    print("\n== compare-and-swap ==")
    completions.clear()
    cluster.replica(3).submit(
        Operation.rmw("user:0", "locked-by-3", compare="value-from-node-0"), on_complete
    )
    cluster.run(until=0.003)
    op, status, value = completions[0]
    print(f"  rmw   {op.key!r} -> {value!r} (status={status.value})")

    print("\n== cluster statistics ==")
    print(f"  writes committed : {cluster.total_stat('writes_committed')}")
    print(f"  rmws committed   : {cluster.total_stat('rmws_committed')}")
    print(f"  local reads      : {cluster.total_stat('reads_served_locally')}")
    print(f"  network messages : {cluster.network.stats.messages_sent}")


if __name__ == "__main__":
    main()
