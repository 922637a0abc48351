"""One repeat of one workload, in a fresh interpreter.

``bench.py`` starts this file as a subprocess per repeat (an in-process
repeat drifts: four back-to-back ``read-heavy`` runs slow 4.3 s -> 5.8 s as
the retained heap grows). It drives the public stages ``run_experiment`` is
made of — ``build_cluster``, ``build_workload`` + ``initial_dataset``,
``Cluster.preload``, ``FailureInjector.arm``, ``build_clients``,
``run_clients``, the ``analysis.stats`` reduction, ``check_all`` — reading the
clock at each boundary, and prints one JSON object: stage spans, simulated
results, raw counters, ``sim_digest`` and, with ``--profile``, each layer's
share of the measured region's self time.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import pstats
import resource
import statistics
import sys
import time
from collections import Counter
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

_STARTED = time.perf_counter()

import repro  # noqa: E402 - timed: the import is a stage of set-up
from repro.analysis.stats import latency_summary, percentile, throughput  # noqa: E402
from repro.bench.harness import (  # noqa: E402
    ExperimentSpec,
    build_clients,
    build_cluster,
    build_workload,
)
from repro.cluster.client import run_clients  # noqa: E402
from repro.cluster.failures import FailureInjector  # noqa: E402
from repro.types import OperationResult, OpStatus, OpType  # noqa: E402
from repro.verification import History, check_all  # noqa: E402

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

_IMPORT_S = time.perf_counter() - _STARTED

_PACKAGE_DIR = os.path.dirname(repro.__file__) + os.sep

#: Path under ``src/repro/`` -> layer, first match wins; everything outside
#: the package (stdlib, this directory) is ``stdlib``. ``sim.engine`` also
#: holds the engine's support modules (rng, clock, trace); ``protocols`` also
#: holds the ``rpc`` transport only protocols use; ``types`` is the
#: package's top-level modules.
LAYER_PREFIXES = (
    ("sim/network.py", "sim.network"),
    ("sim/node.py", "sim.node"),
    ("sim/", "sim.engine"),
    ("core/", "core"),
    ("protocols/", "protocols"),
    ("rpc/", "protocols"),
    ("membership/", "membership"),
    ("kvs/", "kvs"),
    ("cluster/client.py", "cluster.client"),
    ("cluster/cluster.py", "cluster.cluster"),
    ("cluster/sharding.py", "cluster.sharding"),
    ("cluster/txn.py", "cluster.txn"),
    ("cluster/", "cluster.other"),
    ("workloads/", "workloads"),
    ("verification/", "verification"),
    ("analysis/", "analysis"),
    ("bench/", "bench"),
    ("fuzz/", "fuzz"),
    ("", "types"),
)
LAYERS = tuple(dict.fromkeys(layer for _, layer in LAYER_PREFIXES)) + ("stdlib",)


def _layer_of(filename: str) -> str:
    if not filename.startswith(_PACKAGE_DIR):
        return "stdlib"
    relative = filename[len(_PACKAGE_DIR) :].replace(os.sep, "/")
    return next(layer for prefix, layer in LAYER_PREFIXES if relative.startswith(prefix))


def self_time_shares(profile: cProfile.Profile) -> Dict[str, float]:
    """Each layer's share of profiled self time (shares sum to 1).

    A builtin's self time (``heappush``, ``sorted``, ``dict.get``) is charged
    to the layer of the function that called it: that layer chose to make
    the call, and a change to the layer is what would remove it.
    """
    totals: Counter = Counter()
    for (filename, _, _), (_, _, tottime, _, callers) in pstats.Stats(profile).stats.items():
        if filename != "~":
            totals[_layer_of(filename)] += tottime
            continue
        for (caller_file, _, _), (_, _, caller_tottime, _) in callers.items():
            totals[_layer_of(caller_file)] += caller_tottime
    whole = sum(totals.values())
    return {layer: totals[layer] / whole for layer in LAYERS}


def update_digest(digest: Any, duration: float, results: Sequence[OperationResult]) -> None:
    """Fold one cell into ``sim_digest``.

    The ``repro.fuzz.trial._artifact_digest`` recipe: every per-op record in
    op-id order. Ids come from a process-global counter, so only their order
    (the rank) is the run's own — the position in the stream stands for it.
    """
    digest.update(f"{duration:.9f}|{len(results)}\n".encode())
    digest.update(
        "\n".join(
            f"{r.op.op_type.value},{r.op.key!r},{r.value!r},"
            f"{r.start_time:.9f},{r.end_time:.9f},{r.status.value}"
            for r in sorted(results, key=lambda r: r.op.op_id)
        ).encode()
    )


class Cell(NamedTuple):
    """What the simulated end-to-end metrics need of one finished cell."""

    latencies: List[float]  # of OK records, simulated seconds
    records: int  # op records plus requests that never completed
    completed: int  # client requests
    makespan: float  # first issue to last completion, simulated seconds


def simulated_metrics(cells: Sequence[Cell]) -> Dict[str, float]:
    """The simulated end-to-end metrics over the pooled records of ``cells``."""
    latencies = [latency for cell in cells for latency in cell.latencies]
    return {
        "sim_throughput_ops_s": sum(c.completed for c in cells) / sum(c.makespan for c in cells),
        "sim_p50_us": percentile(latencies, 0.50) * 1e6,
        "sim_p99_us": percentile(latencies, 0.99) * 1e6,
        "sim_p999_us": percentile(latencies, 0.999) * 1e6,
        "ok_op_fraction": len(latencies) / sum(c.records for c in cells),
        "latency_samples": len(latencies),
    }


class _Region:
    """Accumulates the measured region's wall and CPU seconds."""

    def __init__(self, profile: Optional[cProfile.Profile]) -> None:
        self.profile = profile
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.peak_rss_mb = 0.0

    def __enter__(self) -> None:
        self._cpu = time.process_time()
        self._wall = time.perf_counter()
        if self.profile:
            self.profile.enable()

    def __exit__(self, *exc_info: Any) -> None:
        if self.profile:
            self.profile.disable()
        self.wall_s += time.perf_counter() - self._wall
        self.cpu_s += time.process_time() - self._cpu
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(
    name: str, seed: int, scale: float = 1.0, profile: bool = False, t0: float = _STARTED
) -> Dict[str, Any]:
    """Run every cell of one workload through the timed stages."""
    clock = time.perf_counter
    workload = WORKLOADS[name]
    specs, inputs = workload.cells(seed, scale)
    spans: Counter = Counter({"bench.harness.import_s": _IMPORT_S})
    counts: Counter = Counter(failed=0, max_key_ops=0)
    errors: List[str] = []
    finished: List[Cell] = []
    cell_throughputs: List[float] = []
    digest = hashlib.sha256()
    region = _Region(cProfile.Profile() if profile else None)

    def set_up(spec: ExperimentSpec):
        t0 = clock()
        cluster = build_cluster(spec)
        t1 = clock()
        mix = build_workload(spec)
        dataset = mix.initial_dataset()
        t2 = clock()
        cluster.preload(dataset)
        if spec.faults:
            FailureInjector(cluster, spec.faults).arm()
        t3 = clock()
        history = History() if spec.record_history else None
        clients = build_clients(spec, cluster, mix, history)
        t4 = clock()
        spans["cluster.cluster.build_s"] += t1 - t0
        spans["workloads.dataset_s"] += t2 - t1
        spans["cluster.cluster.preload_s"] += t3 - t2
        spans["cluster.client.build_s"] += t4 - t3
        return cluster, dataset, history, clients

    def run(spec: ExperimentSpec, cluster, dataset, history, clients):
        t0 = clock()
        duration = run_clients(
            cluster, clients, max_time=spec.max_sim_time, allow_incomplete=spec.allow_incomplete
        )
        t1 = clock()
        # The reduction run_experiment performs: pooled records, throughput,
        # and the overall / read / update latency summaries.
        results = [record for client in clients for record in client.results]
        cell_throughputs.append(throughput(results))
        latency_summary(results)
        latency_summary(results, op_type=OpType.READ)
        latency_summary([r for r in results if r.op.op_type is not OpType.READ])
        t2 = clock()
        report = None
        if workload.verify:
            report = check_all(
                history, initial_values=dataset, migration_records=cluster.migration_records
            )
        t3 = clock()
        spans["cluster.client.run_s"] += t1 - t0
        spans["analysis.stats.reduce_s"] += t2 - t1
        spans["verification.check_s"] += t3 - t2
        return cluster, history, clients, duration, results, report

    def account(spec: ExperimentSpec, cluster, history, clients, duration, results, report) -> None:
        # Bookkeeping, outside the measured region.
        issued = sum(client.issued for client in clients)
        completed = sum(client.completed for client in clients)
        if not spec.allow_incomplete:
            definitive = (OpStatus.OK, OpStatus.ABORTED)
            counts["failed"] += issued - completed
            counts["failed"] += sum(1 for r in results if r.status not in definitive)
        finished.append(
            Cell(
                latencies=[r.end_time - r.start_time for r in results if r.status is OpStatus.OK],
                records=len(results) + issued - completed,
                completed=completed,
                # run_clients' own duration is rounded up to its 200 us poll.
                makespan=max(r.end_time for r in results) - min(r.start_time for r in results),
            )
        )
        stats = cluster.network.stats
        counts.update(
            issued=issued,
            completed=completed,
            events=cluster.sim.events_executed,
            messages=stats.messages_sent,
            bytes=stats.bytes_sent,
            duplicated=stats.messages_duplicated,
            dropped=stats.messages_dropped_loss
            + stats.messages_dropped_partition
            + stats.messages_dropped_crashed,
            local_reads=cluster.total_stat("reads_served_locally"),
            remote_reads=cluster.total_stat("reads_served_remotely"),
            replays=cluster.total_stat("replays_started"),
            inv_retransmissions=cluster.total_stat("inv_retransmissions"),
            txns_committed=cluster.txn_stat("txns_committed"),
            txns_aborted=cluster.txn_stat("txns_aborted"),
            txns_timedout=cluster.txn_stat("txns_timedout"),
            txns_cross_shard=cluster.txn_stat("txns_cross_shard"),
        )
        if report is not None:
            details = report.checker("linearizability").details
            counts.update(
                checked_ops=details["operations"], explored_states=details["explored_states"]
            )
            deepest = max((len(ops) for ops in history.per_key().values()), default=0)
            counts["max_key_ops"] = max(counts["max_key_ops"], deepest)
            if not report.ok:
                errors.append(f"{spec.label or spec.protocol}: {report.violations[:2]}")
        update_digest(digest, duration, results)

    setup_s = clock() - t0
    for spec in specs:
        if workload.per_cell_setup:
            # These users pay set-up per cell, so it is inside the region.
            with region:
                outcome = run(spec, *set_up(spec))
        else:
            stage = set_up(spec)
            setup_s = clock() - t0
            with region:
                outcome = run(spec, *stage)
        account(spec, *outcome)

    if workload.check:
        errors += workload.check(seed, scale, cell_throughputs)

    if workload.median_of_cells:
        per_cell = [simulated_metrics([cell]) for cell in finished if cell.latencies]
        sim = {key: statistics.median(cell[key] for cell in per_cell) for key in per_cell[0]}
    else:
        sim = simulated_metrics(finished)

    out = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "inputs": inputs,
        "cells": len(specs),
        "setup_s": setup_s,
        "region_s": region.wall_s,
        "region_cpu_s": region.cpu_s,
        "peak_rss_mb": region.peak_rss_mb,
        "spans": dict(spans),
        "counts": dict(counts),
        "cell_throughputs": cell_throughputs,
        "sim": sim,
        "sim_digest": digest.hexdigest(),
        "errors": errors,
    }
    if region.profile:
        out["shares"] = self_time_shares(region.profile)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", nargs="?", help="omit to only import (page-cache warm-up)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--t0", type=float, default=_STARTED, help="spawner's perf_counter")
    parser.add_argument("--profile", action="store_true", help="cProfile the measured region")
    args = parser.parse_args(argv)
    if args.workload:
        print(json.dumps(run_workload(args.workload, args.seed, args.scale, args.profile, args.t0)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
