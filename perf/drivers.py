"""Isolated drivers: one layer's public API with no cluster around it.

Each driver returns ``(units, seconds)``; the reported host rate is the best
of three. A driver that improves while no workload's ``host_ops_per_s`` does
means its layer is not on a blocking path. ``schedule_run`` and
``timers_cancel`` are ported from ``repro.bench.microbench``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Callable, Dict, Tuple

from repro.analysis.stats import latency_summary
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.rng import SeededRNG
from repro.types import Operation, OperationResult, OpStatus
from repro.workloads.aggregate import AggregateArrivals, AggregateWorkload
from repro.workloads.distributions import ZipfianKeys
from repro.workloads.generator import WorkloadMix

Driver = Callable[[], Tuple[int, float]]


def _noop(*_args: object) -> None:
    pass


def schedule_run(events: int = 60_000) -> Tuple[int, float]:
    """Pre-schedule a batch of timed events (unsorted pushes), then drain."""
    sim = Simulator()
    start = time.perf_counter()
    schedule = sim.schedule
    for i in range(events):
        schedule((i % 97) * 1e-6 + 1e-9, _noop)
    sim.run()
    return events, time.perf_counter() - start


def timers_cancel(events: int = 100_000) -> Tuple[int, float]:
    """Arm a timer per event and cancel 90% before they fire (retransmission timers)."""
    sim = Simulator()
    start = time.perf_counter()
    for i in range(events):
        handle = sim.schedule(1e-3 + (i % 13) * 1e-6, _noop)
        if i % 10 != 0:
            handle.cancel()
    sim.run()
    return events, time.perf_counter() - start


def broadcast(rounds: int = 10_000) -> Tuple[int, float]:
    """``Network.broadcast`` from each of 5 nodes to sink receivers, then drain."""
    sim = Simulator()
    network = Network(sim)
    nodes = list(range(5))
    for node in nodes:
        network.register(node, _noop)
    start = time.perf_counter()
    for i in range(rounds):
        network.broadcast(i % 5, nodes, i, size_bytes=48)
    sim.run()
    return network.stats.messages_sent, time.perf_counter() - start


def _read_heavy_mix() -> WorkloadMix:
    return WorkloadMix(distribution=ZipfianKeys(20_000, exponent=0.99), write_ratio=0.05, seed=11)


def stream(ops: int = 40_000) -> Tuple[int, float]:
    """``WorkloadMix.stream`` at the read-heavy mix (zipf 0.99, 5% writes)."""
    mix = _read_heavy_mix()
    start = time.perf_counter()
    produced = sum(1 for _ in mix.stream(0, ops))
    return produced, time.perf_counter() - start


def aggregate(ops: int = 20_000) -> Tuple[int, float]:
    """The aggregated client's hot loop: batched arrival draws + per-session op synthesis."""
    arrivals = AggregateArrivals(
        sessions=1_000_000,
        aggregate_rate=2.0e6,
        rng=SeededRNG(11).child("driver"),
        request_latency=50e-6,
        jitter=0.05,
    )
    workload = AggregateWorkload(_read_heavy_mix())
    start = time.perf_counter()
    produced = 0
    clock = 0.0
    while produced < ops:
        batch = arrivals.draw(clock, min(256, ops - produced))
        for _issue_time, _request_lat, _response_lat, session in batch:
            workload.next_operation(session)
        clock = batch[-1][0]
        produced += len(batch)
    return produced, time.perf_counter() - start


@functools.lru_cache(maxsize=1)
def _synthetic_results(ops: int) -> Tuple[OperationResult, ...]:
    op = Operation.read(0)
    return tuple(
        OperationResult(op, OpStatus.OK, None, i * 1e-6, i * 1e-6 + (i * 7919 % 1000) * 1e-8)
        for i in range(ops)
    )


def summary(ops: int = 200_000) -> Tuple[int, float]:
    """``latency_summary`` over synthetic results (built once, outside the timing)."""
    results = _synthetic_results(ops)
    start = time.perf_counter()
    latency_summary(results)
    return ops, time.perf_counter() - start


DRIVERS: Dict[str, Driver] = {
    "sim.engine.schedule_run_events_per_s": schedule_run,
    "sim.engine.timers_cancel_events_per_s": timers_cancel,
    "sim.network.broadcast_msgs_per_s": broadcast,
    "workloads.stream_ops_per_s": stream,
    "workloads.aggregate_ops_per_s": aggregate,
    "analysis.stats.summary_ops_per_s": summary,
}


def main() -> int:
    rates = {}
    for name, driver in DRIVERS.items():
        rates[name] = max(units / seconds for units, seconds in (driver() for _ in range(3)))
    print(json.dumps(rates))
    return 0


if __name__ == "__main__":
    sys.exit(main())
