"""Hermes read-modify-writes: commit, abort and compare-and-swap semantics (§3.6)."""

from __future__ import annotations

import pytest

from repro.core.config import HermesConfig
from repro.types import Operation, OpStatus
from tests.conftest import make_cluster, submit_and_run


def test_rmw_commits_without_contention(hermes_cluster):
    hermes_cluster.preload({"lock": "free"})
    status, value = submit_and_run(hermes_cluster, 0, Operation.rmw("lock", "held", compare="free"))
    assert status is OpStatus.OK
    assert value == "held"
    hermes_cluster.run(until=hermes_cluster.sim.now + 0.001)
    assert all(r.store.get("lock") == "held" for r in hermes_cluster.all_replicas())


def test_rmw_compare_failure_returns_current_value(hermes_cluster):
    hermes_cluster.preload({"lock": "held"})
    status, value = submit_and_run(hermes_cluster, 1, Operation.rmw("lock", "mine", compare="free"))
    assert status is OpStatus.OK
    assert value == "held"
    # Nothing was written.
    assert hermes_cluster.replica(1).store.get("lock") == "held"
    assert hermes_cluster.total_stat("rmws_committed") == 0


def test_rmw_version_increment_is_one_and_write_is_two(hermes_cluster):
    hermes_cluster.preload({"k": 0})
    submit_and_run(hermes_cluster, 0, Operation.rmw("k", 1))
    hermes_cluster.run(until=hermes_cluster.sim.now + 0.001)
    assert hermes_cluster.replica(1).key_timestamp("k").version == 1
    submit_and_run(hermes_cluster, 0, Operation.write("k", 2))
    hermes_cluster.run(until=hermes_cluster.sim.now + 0.001)
    assert hermes_cluster.replica(1).key_timestamp("k").version == 3


def test_write_racing_rmw_aborts_the_rmw(hermes_cluster):
    """A write concurrent with an RMW gets the higher timestamp, so the RMW aborts."""
    hermes_cluster.preload({"k": 0})
    outcomes = {}

    def submit(node, op, label):
        hermes_cluster.replica(node).submit(op, lambda o, s, v: outcomes.setdefault(label, (s, v)))

    hermes_cluster.sim.schedule(0.0, submit, 0, Operation.rmw("k", "rmw-value"), "rmw")
    hermes_cluster.sim.schedule(0.0, submit, 2, Operation.write("k", "write-value"), "write")
    hermes_cluster.run(until=0.02)
    assert outcomes["write"][0] is OpStatus.OK
    assert outcomes["rmw"][0] is OpStatus.ABORTED
    hermes_cluster.run(until=hermes_cluster.sim.now + 0.001)
    values = {r.store.get("k") for r in hermes_cluster.all_replicas()}
    assert values == {"write-value"}


def test_concurrent_rmws_at_most_one_commits(five_node_hermes):
    """Of several racing RMWs to one key, at most one commits (§3.6 property 2)."""
    five_node_hermes.preload({"counter": 0})
    outcomes = []

    def submit(node):
        five_node_hermes.replica(node).submit(
            Operation.rmw("counter", f"winner-{node}"),
            lambda o, s, v: outcomes.append((node, s)),
        )

    for node in five_node_hermes.node_ids:
        five_node_hermes.sim.schedule(0.0, submit, node)
    five_node_hermes.run(until=0.05)
    committed = [n for n, s in outcomes if s is OpStatus.OK]
    aborted = [n for n, s in outcomes if s is OpStatus.ABORTED]
    assert len(outcomes) == 5
    assert len(committed) <= 1
    assert len(committed) + len(aborted) == 5
    if committed:
        five_node_hermes.run(until=five_node_hermes.sim.now + 0.001)
        values = {r.store.get("counter") for r in five_node_hermes.all_replicas()}
        assert values == {f"winner-{committed[0]}"}


def test_sequential_rmws_all_commit(hermes_cluster):
    hermes_cluster.preload({"counter": 0})
    for i in range(1, 6):
        status, value = submit_and_run(
            hermes_cluster, i % 3, Operation.rmw("counter", i, compare=i - 1)
        )
        assert status is OpStatus.OK
        assert value == i
    assert hermes_cluster.total_stat("rmws_committed") == 5


def test_rmw_disabled_falls_back_to_write():
    cluster = make_cluster("hermes", 3, hermes=HermesConfig(enable_rmw=False))
    cluster.preload({"k": 0})
    status, value = submit_and_run(cluster, 0, Operation.rmw("k", 9))
    assert status is OpStatus.OK
    cluster.run(until=cluster.sim.now + 0.001)
    assert cluster.replica(1).store.get("k") == 9


def test_cas_based_lock_acquisition_is_mutually_exclusive(five_node_hermes):
    """A spin-lock built on compare-and-swap grants the lock to exactly one node."""
    five_node_hermes.preload({"lock": "free"})
    grants = []

    def try_acquire(node):
        five_node_hermes.replica(node).submit(
            Operation.rmw("lock", f"owner-{node}", compare="free"),
            lambda o, s, v: grants.append((node, s, v)),
        )

    for node in five_node_hermes.node_ids:
        five_node_hermes.sim.schedule(0.0, try_acquire, node)
    five_node_hermes.run(until=0.05)
    winners = [n for n, s, v in grants if s is OpStatus.OK and v == f"owner-{n}"]
    assert len(winners) <= 1
