"""The host-GC governor and the invariant it relies on.

``repro.sim.hostgc`` pauses the cyclic collector for the rest of a run once
the run's first full collection is done. That is only sound because a run
allocates **no reference cycles**: everything it drops is freed by reference
counting, so the later collections it skips could not have freed anything.
The first half of this file holds every protocol and client model to that,
and a dropped cell (its cluster, replica skeleton, sessions and op records)
to being freed by reference counting alone, in unit runs and through the
figure and fuzz entry points (counts, never a wall-clock number); the second
half checks the governor leaves the process's GC state exactly as it found
it on every exit path.
"""

from __future__ import annotations

import ast
import gc
import json
import os
import subprocess
import sys
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
from repro.sim.hostgc import quiet_after_full_collection
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
    assert len(schedules) == 10
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


def test_nested_entries_unwind_in_order(gc_state):
    enabled, callbacks = gc_state
    with quiet_after_full_collection():
        with quiet_after_full_collection():
            assert len(gc.callbacks) == len(callbacks) + 2
        assert len(gc.callbacks) == len(callbacks) + 1
        assert gc.isenabled() == enabled
    assert (gc.isenabled(), list(gc.callbacks)) == gc_state


def test_full_pass_inside_a_nest_pauses_until_the_outer_exit(gc_state):
    with quiet_after_full_collection():
        with quiet_after_full_collection():
            # What the collector does at the end of a full pass: every hook.
            for hook in gc.callbacks[-2:]:
                hook("stop", {"generation": 2})
            assert not gc.isenabled()
        assert not gc.isenabled()  # the outer run is still going
    assert gc.isenabled()


def test_someone_elses_disable_inside_the_block_is_kept(gc_state):
    try:
        with quiet_after_full_collection():
            gc.disable()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_disabled_collector_is_left_disabled(gc_state):
    gc.disable()
    try:
        with quiet_after_full_collection():
            assert list(gc.callbacks) == gc_state[1]  # no hook: nothing to pause
            assert not gc.isenabled()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_hook_pauses_only_after_a_full_collection(gc_state):
    with quiet_after_full_collection():
        hook = gc.callbacks[-1]
        hook("stop", {"generation": 1})
        hook("start", {"generation": 2})
        assert gc.isenabled()
        hook("stop", {"generation": 2})
        assert not gc.isenabled()
    assert gc.isenabled()


# ------------------------------------------------- the one pass that is kept
_TWO_CELLS = """
import gc, json, weakref
from repro.bench.harness import ExperimentSpec, build_clients, build_cluster, build_workload
from repro.cluster.client import run_clients

REPLICAS, SESSIONS_PER_REPLICA = 3, 10

def cell(ops_per_client):
    spec = ExperimentSpec(num_replicas=REPLICAS, num_keys=100,
                          clients_per_replica=SESSIONS_PER_REPLICA,
                          ops_per_client=ops_per_client, write_ratio=0.05, seed=5)
    cluster = build_cluster(spec)
    workload = build_workload(spec)
    cluster.preload(workload.initial_dataset())
    return cluster, build_clients(spec, cluster, workload, None)

# 6k ops: long enough for the cluster to age into the oldest generation,
# too short for the process's first full collection.
cluster, clients = cell(200)
run_clients(cluster, clients)
first = weakref.ref(cluster.nodes[0])
del cluster, clients
report = {"dead_after_del": first() is None, "full_passes": 0, "collections_after": 0}

# Sized from the collector's own state, so that the process's first full
# collection falls inside this run whatever a run retains per op. A full
# pass waits for more than t2 generation-1 passes since the last one
# (each takes t1 + 1 generation-0 passes of t0 + 1 net new tracked objects)
# and for the objects promoted since the last one to exceed a quarter of
# those it kept (at most every tracked object now; the newest t1 + 1 passes'
# worth are not promoted yet). Every op retains at least one tracked object,
# its Operation; the margin covers the objects the cell's build takes.
t0, t1, t2 = gc.get_threshold()
c0, c1, c2 = gc.get_count()
young_passes = (t2 + 1 - c2) * (t1 + 1) - c1
net_new = max(young_passes * (t0 + 1) - c0, len(gc.get_objects()) // 4 + (t1 + 1) * (t0 + 1))
ops_per_client = -(-net_new * 5 // 4 // (REPLICAS * SESSIONS_PER_REPLICA))
report["ops"] = ops_per_client * REPLICAS * SESSIONS_PER_REPLICA
cluster, clients = cell(ops_per_client)
def observe(phase, info):
    if phase != "start":
        return
    if info["generation"] == 2:
        report["full_passes"] += 1
    elif report["full_passes"]:
        report["collections_after"] += 1
gc.callbacks.append(observe)
run_clients(cluster, clients)
gc.callbacks.remove(observe)
report.update(enabled_after=gc.isenabled(), callbacks_after=len(gc.callbacks))
print(json.dumps(report))
"""


def test_first_full_pass_of_a_run_is_kept_and_later_collections_are_not():
    # A fresh interpreter: when a full collection happens depends on how many
    # objects the process already holds (the 25%-growth rule) and on its
    # collection counters, and a pytest process has plenty of both.
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _TWO_CELLS], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["enabled_after"] and report["callbacks_after"] == 0
    # Dropping the first cell's cluster freed its whole skeleton at once, by
    # reference counting: no collection has to find it.
    assert report["dead_after_del"]
    if not report["full_passes"] and sys.version_info >= (3, 13):
        pytest.skip("this interpreter's collector reported no generation-2 pass")
    # The second run's first full pass is its last collection of any
    # generation (an ungoverned run of this size makes dozens more); the one
    # allowed here is the deferred young pass that re-enabling triggers.
    assert report["full_passes"] == 1, "resize the cells: no full pass inside the second run"
    assert report["collections_after"] <= 1


# ------------------------------------------------------ one place touches gc
def test_exactly_one_module_under_src_touches_gc():
    def imports_gc(path: Path) -> bool:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import) and any(alias.name == "gc" for alias in node.names):
                return True
            if isinstance(node, ast.ImportFrom) and node.module == "gc":
                return True
        return False

    users = [path for path in sorted((REPO / "src").rglob("*.py")) if imports_gc(path)]
    assert users == [REPO / "src" / "repro" / "sim" / "hostgc.py"]
    source = users[0].read_text()
    for forbidden in ("gc.collect(", "gc.freeze(", "gc.set_threshold("):
        assert forbidden not in source
