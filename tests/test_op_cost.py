"""What one simulated operation costs the host, in machine-independent units.

Two Hermes cells shaped like the benchmark's ``write-only`` and
``read-heavy`` workloads, at a tenth of their size, run under a
``sys.setprofile`` hook that counts Python function calls during
``run_clients`` only. The gates are calls per completed operation (a
regression names the frames it added: the failure message lists the top
call sites per op) and the engine's exact event count, which moves only
when the model does. Counts, not seconds, so they read the same on any
machine. The bounds were measured on CPython 3.11; the frames 3.12 no
longer makes (inlined list and set comprehensions) are 0.015 calls per op
here, well inside their 2% margin.
"""

from __future__ import annotations

import sys
from collections import Counter
from typing import Tuple

import pytest

from repro.bench.harness import ExperimentSpec, build_clients, build_cluster, build_workload
from repro.cluster.client import run_clients
from repro.sim.engine import EventHandle

#: Every write is an INV/ACK/VAL round over 5 replicas: 12 messages, one
#: inbox frame each, plus the client op's own frame.
_WRITE_ONLY = ExperimentSpec(
    protocol="hermes",
    num_replicas=5,
    clients_per_replica=10,
    ops_per_client=70,
    write_ratio=1.0,
    num_keys=20_000,
    seed=3,
)

#: 5% writes over zipf-0.99 keys: local reads, where client and dispatch
#: frames dominate.
_READ_HEAVY = ExperimentSpec(
    protocol="hermes",
    num_replicas=5,
    clients_per_replica=10,
    ops_per_client=400,
    write_ratio=0.05,
    zipfian_exponent=0.99,
    num_keys=20_000,
    seed=3,
)

#: (spec, max Python calls per completed op, exact events executed). The
#: bounds are the measured 115.0 and 21.36 calls per op plus 2%; before
#: timers left the message heap and arrivals named their table handler,
#: the same cells measured 181.0 and 25.6.
_CELLS = {
    "write-only": (_WRITE_ONLY, 117.3, 45_548),
    "read-heavy": (_READ_HEAVY, 21.8, 32_001),
}


def _profiled_run(spec: ExperimentSpec) -> Tuple[int, int, Counter, object]:
    """Run ``spec``'s clients under a call counter.

    Returns (completed ops, events executed, calls per ``file:function``,
    the simulator).
    """
    cluster = build_cluster(spec)
    workload = build_workload(spec)
    cluster.preload(workload.initial_dataset())
    clients = build_clients(spec, cluster, workload, None)
    sites: Counter = Counter()

    def count(frame, event, arg):
        if event == "call":
            code = frame.f_code
            sites[code.co_filename, code.co_name] += 1

    events_before = cluster.sim.events_executed
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        run_clients(cluster, clients, max_time=spec.max_sim_time)
    finally:
        sys.setprofile(previous)
    completed = sum(client.completed for client in clients)
    return completed, cluster.sim.events_executed - events_before, sites, cluster.sim


def _top_sites(sites: Counter, completed: int, limit: int = 15) -> str:
    return "\n".join(
        f"  {count / completed:8.3f}  {filename.rsplit('/', 1)[-1]}:{name}"
        for (filename, name), count in sites.most_common(limit)
    )


@pytest.mark.parametrize("shape", sorted(_CELLS))
def test_python_calls_and_events_per_operation(shape):
    spec, max_calls_per_op, events = _CELLS[shape]
    completed, executed, sites, sim = _profiled_run(spec)
    assert completed == spec.num_replicas * spec.clients_per_replica * spec.ops_per_client
    assert executed == events, f"{executed / completed:.4f} events per op: the model changed"
    calls_per_op = sum(sites.values()) / completed
    assert calls_per_op <= max_calls_per_op, (
        f"{calls_per_op:.2f} Python calls per op (bound {max_calls_per_op}); "
        f"top call sites per op:\n{_top_sites(sites, completed)}"
    )
    # Timers, cancelled or not, live on the engine's timer heap only.
    assert not any(isinstance(entry, EventHandle) for entry in sim._heap)
