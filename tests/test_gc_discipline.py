"""Reference-cycle discipline: a run allocates no cycles, and a dropped cell is
freed by reference counting.

The event loop leaves the host's cyclic collector alone. That is cheap only
because a run allocates **no reference cycles**: everything it drops is
freed by reference counting, so a collection finds nothing of the
simulator's to free. This file holds every protocol and client model to
that, and a dropped cell (its cluster, replica skeleton, sessions and op
records) to being freed by reference counting alone, in unit runs and
through the figure and fuzz entry points (counts, never a wall-clock
number). It also checks that a run leaves the process's GC state as it
found it and that no module under ``src/`` touches the collector.
"""

from __future__ import annotations

import ast
import gc
import weakref
from pathlib import Path

import pytest

from repro.bench import harness
from repro.bench.harness import (
    ExperimentSpec,
    build_clients,
    build_cluster,
    build_workload,
    run_experiment,
)
from repro.cluster.autoscale import Autoscaler
from repro.cluster.client import ClientSession, run_clients
from repro.cluster.cluster import Cluster
from repro.cluster.failures import FailureInjector
from repro.errors import SimulationDeadlock
from repro.fuzz import load_schedule
from repro.fuzz.trial import run_trial
from repro.kvs.store import KeyValueStore
from repro.membership.service import MembershipService
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.node import NodeProcess
from repro.types import Operation
from repro.verification import History

REPO = Path(__file__).resolve().parent.parent
CORPUS_DIR = REPO / "tests" / "fuzz_corpus"

_CELL = dict(
    num_replicas=3, num_keys=200, clients_per_replica=4, ops_per_client=150, write_ratio=0.3, seed=7
)
SPECS = {
    **{protocol: ExperimentSpec(protocol=protocol, **_CELL) for protocol in
       ("hermes", "craq", "cr", "zab", "derecho")},
    "coupled-txn": ExperimentSpec(shards=4, txn_fraction=0.1, txn_cross_shard=0.5, **_CELL),
    "aggregated": ExperimentSpec(
        client_model="aggregated", sessions=10_000, offered_load=2e5, **_CELL
    ),
    "open-loop": ExperimentSpec(
        client_model="open", offered_load=2e5, record_history=True, **_CELL
    ),
    "wings": ExperimentSpec(use_wings=True, **_CELL),
    # craq, 2 shards: crash + recover, partition + heal, degraded link, clock skew.
    "faulted-craq": load_schedule(CORPUS_DIR / "seed_1674203090.json").to_spec(),
    # hermes, 2 shards: crash + recover under the autoscaler, one node rejoin.
    "faulted-autoscale": load_schedule(CORPUS_DIR / "seed_424242.json").to_spec(),
}


@pytest.fixture
def gc_state():
    """Hand the test the entry state; fail it if it leaks a change."""
    enabled, callbacks = gc.isenabled(), list(gc.callbacks)
    try:
        yield enabled, callbacks
    finally:
        leaked = (gc.isenabled(), list(gc.callbacks)) != (enabled, callbacks)
        gc.callbacks[:] = callbacks
        (gc.enable if enabled else gc.disable)()
    assert not leaked, "GC state was not restored"


# ------------------------------------------------------ a run makes no cycles
@pytest.mark.parametrize("name", SPECS)
def test_run_creates_no_cyclic_garbage(name, gc_state):
    spec = SPECS[name]
    cluster = build_cluster(spec)
    workload = build_workload(spec)
    cluster.preload(workload.initial_dataset())
    if spec.faults:
        FailureInjector(cluster, spec.faults).arm()
    history = History() if spec.record_history else None
    clients = build_clients(spec, cluster, workload, history)
    gc.collect()
    gc.disable()
    try:
        run_clients(
            cluster, clients, max_time=spec.max_sim_time, allow_incomplete=spec.allow_incomplete
        )
        # The cluster, clients and history are still referenced: whatever
        # the collector finds now is garbage the run itself left behind.
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert sum(client.completed for client in clients) > 0
    assert unreachable == 0


# ------------------------------------- a finished cell is freed by refcount
#: What a cell allocates: its skeleton (simulator, network, node processes,
#: stores, membership service, fault injector, autoscaler), its sessions and
#: its per-operation records. The skeleton is cyclic while the cluster lives;
#: dropping the cluster runs its teardown, and then none of it may be left.
_REFCOUNTED = (
    Cluster,
    Simulator,
    Network,
    NodeProcess,
    KeyValueStore,
    MembershipService,
    FailureInjector,
    Autoscaler,
    ClientSession,
    Operation,
    History,
)


@pytest.mark.parametrize("name", SPECS)
def test_finished_cell_is_freed_by_reference_counting(name, gc_state):
    spec = SPECS[name]
    gc.collect()
    gc.disable()
    try:
        # Held so that no id below can be reused by an object of this cell.
        before = [obj for obj in gc.get_objects() if isinstance(obj, _REFCOUNTED)]
        known = {id(obj) for obj in before}
        cluster = build_cluster(spec)
        workload = build_workload(spec)
        cluster.preload(workload.initial_dataset())
        if spec.faults:
            FailureInjector(cluster, spec.faults).arm()
        history = History() if spec.record_history else None
        clients = build_clients(spec, cluster, workload, history)
        run_clients(
            cluster, clients, max_time=spec.max_sim_time, allow_incomplete=spec.allow_incomplete
        )
        completed = sum(client.completed for client in clients)
        del cluster, workload, history, clients
        left = sorted(
            type(obj).__name__
            for obj in gc.get_objects()
            if isinstance(obj, _REFCOUNTED) and id(obj) not in known
        )
        unreachable = gc.collect()
    finally:
        gc.enable()
    budget = spec.num_replicas * spec.clients_per_replica * spec.ops_per_client
    assert completed == budget if not spec.faults else 0 < completed <= budget
    assert left == []
    assert unreachable == 0


def test_no_cell_outlives_its_successors_start(gc_state, monkeypatch):
    """Through the figure and fuzz entry points, with the collector on."""
    simulators = weakref.WeakSet()
    starts = []

    def tracked_build_cluster(spec):
        starts.append(len(simulators))
        cluster = build_cluster(spec)
        simulators.add(cluster.sim)
        return cluster

    monkeypatch.setattr(harness, "build_cluster", tracked_build_cluster)
    grid = [
        ExperimentSpec(**dict(_CELL, protocol=protocol, write_ratio=write_ratio, ops_per_client=50))
        for protocol in ("hermes", "craq", "zab")
        for write_ratio in (0.05, 0.5)
    ]
    for spec in grid:
        run_experiment(spec)
    schedules = sorted(CORPUS_DIR.rglob("seed_*.json"))
    assert len(schedules) == 14
    for path in schedules:
        run_trial(load_schedule(path))
    assert len(starts) == len(grid) + len(schedules)
    assert starts == [0] * len(starts), "earlier cells' simulators alive at each cell start"


# ------------------------------------------------- state restored on every exit
def test_state_restored_after_normal_return(gc_state):
    cluster = Cluster(protocol="hermes", num_replicas=3)
    cluster.run(until=1e-3)
    cluster.run_until(lambda: True)
    assert (gc.isenabled(), list(gc.callbacks)) == gc_state


def test_state_restored_after_deadlock(gc_state):
    cluster = Cluster(protocol="hermes", num_replicas=3)
    with pytest.raises(SimulationDeadlock):
        cluster.run_until(lambda: False, max_time=1e-3)
    assert (gc.isenabled(), list(gc.callbacks)) == gc_state


# ------------------------------------------------------- nothing touches gc
def test_no_module_under_src_touches_gc():
    def imports_gc(path: Path) -> bool:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import) and any(alias.name == "gc" for alias in node.names):
                return True
            if isinstance(node, ast.ImportFrom) and node.module == "gc":
                return True
        return False

    assert [path for path in sorted((REPO / "src").rglob("*.py")) if imports_gc(path)] == []
