"""What one simulated operation costs the host, in machine-independent units.

Three Hermes cells shaped like the benchmark's ``write-only``, ``read-heavy``
and ``sharded-txn`` workloads, at a fraction of their size, run once each
under a ``sys.settrace`` hook that counts, during ``run_clients`` only,
Python function calls and executed bytecodes (``opcode`` events) per code
object. Host time follows executed bytecodes, not calls: a change that
removes frames but not the work inside them leaves the host rate where it
was. The gates, per completed operation:

* executed bytecodes, the unit that tracks host time. The bounds are
  per CPython minor version, because each version compiles to different
  instructions; a version without a measured bound skips this gate.
* Python calls, which every version counts alike.
* the engine's exact event count, which moves only when the model does.

A regression names the code it added: the failure message lists the top
functions per op. Counts, not seconds, so they read the same on any machine.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List

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
    ops_per_client=20,
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
    ops_per_client=100,
    write_ratio=0.05,
    zipfian_exponent=0.99,
    num_keys=20_000,
    seed=3,
)

#: Four coupled shards per node with 10% two-key transactions, half of them
#: cross-shard: every protocol and 2PC message travels in a ``(shard,
#: inner)`` envelope through a ShardHost.
_SHARDED_TXN = ExperimentSpec(
    protocol="hermes",
    num_replicas=5,
    clients_per_replica=10,
    ops_per_client=40,
    write_ratio=0.2,
    zipfian_exponent=0.99,
    num_keys=20_000,
    shards=4,
    txn_fraction=0.1,
    txn_cross_shard=0.5,
    seed=3,
)


@dataclass(frozen=True)
class _Cell:
    spec: ExperimentSpec
    #: Exact engine events executed during ``run_clients``.
    events: int
    #: Bound on Python calls per completed op.
    max_calls: float
    #: CPython ``(major, minor)`` -> bound on executed bytecodes per op.
    max_bytecodes: Dict[tuple, float]


#: Bounds are the measured value plus 2%: 7,549, 1,014 and 2,731 bytecodes
#: (CPython 3.11.7) and 110.1, 19.0 and 50.5 calls per op. Before a healthy
#: fabric skipped the fault tests, message-heap entries carried one
#: argument and shard envelopes were resolved at push, the same cells
#: measured 9,140, 1,142 and 3,219 bytecodes and 115.1, 21.2 and 59.1 calls
#: per op.
_CELLS = {
    "write-only": _Cell(_WRITE_ONLY, 13_056, 112.3, {(3, 11): 7_700}),
    "read-heavy": _Cell(_READ_HEAVY, 7_886, 19.4, {(3, 11): 1_034}),
    "sharded-txn": _Cell(_SHARDED_TXN, 7_892, 51.5, {(3, 11): 2_786}),
}


@dataclass
class _Trace:
    completed: int
    events: int
    calls: Counter
    bytecodes: Counter
    #: Timer handles left on the engine's message heap after the run.
    handles_on_message_heap: int

    def per_op(self, counter: Counter) -> float:
        return sum(counter.values()) / self.completed

    def top(self, counter: Counter, limit: int = 15) -> str:
        return "\n".join(
            f"  {count / self.completed:9.2f}  {code.co_filename.rsplit('/', 1)[-1]}:{code.co_name}"
            for code, count in counter.most_common(limit)
        )


@functools.lru_cache(maxsize=None)
def _traced_run(shape: str) -> _Trace:
    """Run ``shape``'s clients once under a call and bytecode counter."""
    spec = _CELLS[shape].spec
    cluster = build_cluster(spec)
    workload = build_workload(spec)
    cluster.preload(workload.initial_dataset())
    clients = build_clients(spec, cluster, workload, None)
    calls: Counter = Counter()
    # One tracer per code object, counting into its own cell: a dict
    # update per opcode event would make the traced run several times
    # slower.
    cells: Dict[object, List[int]] = {}
    tracers: Dict[object, object] = {}

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        code = frame.f_code
        calls[code] += 1
        tracer = tracers.get(code)
        if tracer is None:
            cell = cells[code] = [0]

            def tracer(frame, event, arg):
                if event == "opcode":
                    cell[0] += 1
                return tracer

            tracers[code] = tracer
        return tracer

    events_before = cluster.sim.events_executed
    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run_clients(cluster, clients, max_time=spec.max_sim_time)
    finally:
        sys.settrace(previous)
    return _Trace(
        completed=sum(client.completed for client in clients),
        events=cluster.sim.events_executed - events_before,
        calls=calls,
        bytecodes=Counter({code: cell[0] for code, cell in cells.items()}),
        handles_on_message_heap=sum(isinstance(entry, EventHandle) for entry in cluster.sim._heap),
    )


@pytest.mark.parametrize("shape", sorted(_CELLS))
def test_python_calls_and_events_per_operation(shape):
    cell = _CELLS[shape]
    trace = _traced_run(shape)
    spec = cell.spec
    assert trace.completed == spec.num_replicas * spec.clients_per_replica * spec.ops_per_client
    assert trace.events == cell.events, (
        f"{trace.events / trace.completed:.4f} events per op: the model changed"
    )
    calls_per_op = trace.per_op(trace.calls)
    assert calls_per_op <= cell.max_calls, (
        f"{calls_per_op:.2f} Python calls per op (bound {cell.max_calls}); "
        f"top functions by calls per op:\n{trace.top(trace.calls)}"
    )
    # Timers, cancelled or not, live on the engine's timer heap only.
    assert trace.handles_on_message_heap == 0


@pytest.mark.parametrize("shape", sorted(_CELLS))
def test_bytecodes_per_operation(shape):
    cell = _CELLS[shape]
    version = sys.version_info[:2]
    bound = cell.max_bytecodes.get(version)
    if bound is None:
        pytest.skip(f"no bytecode bound measured on CPython {version[0]}.{version[1]}")
    trace = _traced_run(shape)
    bytecodes_per_op = trace.per_op(trace.bytecodes)
    assert bytecodes_per_op <= bound, (
        f"{bytecodes_per_op:.1f} executed bytecodes per op (bound {bound}); "
        f"top functions by bytecodes per op:\n{trace.top(trace.bytecodes)}"
    )
