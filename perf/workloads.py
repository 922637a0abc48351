"""The benchmark's workloads: what each one runs and why it exists.

A workload is a list of *cells* — :class:`ExperimentSpec` records the staged
runner in :mod:`child` executes one after another. Five workloads are a
single cell; ``fuzz-batch`` and ``protocol-grid`` are many small cells whose
per-cell set-up is part of what their users pay.

Every input is a pure function of ``(seed, scale)``; ``scale`` multiplies the
operation budget (``1.0`` measured, ``0.5`` traced pass, ``0.1`` ``--quick``).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.harness import ExperimentSpec
from repro.bench.runner import SCALE_PRESETS, derive_cell_seed
from repro.fuzz.corpus import schedule_from_dict

#: Seed at which ``fuzz-batch`` runs the pool's first 150 schedules and
#: ``protocol-grid`` must reproduce ``bench-baselines/BENCH_fig5.json``.
DEFAULT_SEED = 3

#: ``generate_schedule(derive_trial_seed(3, i))`` for ``i < 170``, frozen with
#: ``repro.fuzz.corpus.schedule_to_dict``; other seeds sample 150 of them.
FUZZ_TRIALS = 150
FUZZ_INPUTS = Path(__file__).resolve().parent / "inputs" / "fuzz_schedules.json"

#: Figure 5b's grid, label and root seed (``repro.bench.experiments
#: ._throughput_sweep``); the label is part of each cell's derived seed.
GRID_LABEL = "Figure 5b (throughput, zipfian 0.99)"
GRID_PROTOCOLS = ("hermes", "craq", "zab")
GRID_WRITE_RATIOS = (0.01, 0.05, 0.20, 0.50, 0.75, 1.00)
GRID_ROOT_SEED = 1
GRID_BASELINE = Path(__file__).resolve().parent.parent / "bench-baselines" / "BENCH_fig5.json"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (``BENCHMARK.json`` says why each exists).

    Attributes:
        cells: ``(seed, scale) -> (specs, inputs)`` where ``inputs`` says
            whether the cells were ``"frozen"`` (committed) or ``"generated"``.
        verify: Run ``check_all`` over each cell's history inside the
            measured region and require a green verdict.
        per_cell_setup: The measured region spans every cell *including* its
            set-up (multi-cell workloads); otherwise set-up is outside it.
        median_of_cells: A simulated metric is the median of its per-cell
            values instead of one value over the pooled records. Injected
            faults slow ~1% of a batch's records 1000x, a cliff right at the
            pooled 99th percentile (35-440 us between seeds).
        check: ``(seed, scale, per-cell throughputs) -> errors``, a
            workload's own correctness check on top of the shared ones.
    """

    cells: Callable[[int, float], Tuple[List[ExperimentSpec], str]]
    verify: bool = False
    per_cell_setup: bool = False
    median_of_cells: bool = False
    check: Optional[Callable[[int, float, List[float]], List[str]]] = None


def _scaled(ops_per_client: int, scale: float) -> int:
    return max(1, round(ops_per_client * scale))


def _single(**fields) -> Callable[[int, float], Tuple[List[ExperimentSpec], str]]:
    fields.setdefault("clients_per_replica", 10)
    base = ExperimentSpec(protocol="hermes", num_replicas=5, **fields)

    def cells(seed: int, scale: float) -> Tuple[List[ExperimentSpec], str]:
        spec = replace(base, seed=seed, ops_per_client=_scaled(base.ops_per_client, scale))
        return [spec], "generated"

    return cells


def _fuzz_cells(seed: int, scale: float) -> Tuple[List[ExperimentSpec], str]:
    # Always drawn from the committed pool, never generated live: a later
    # change to the schedule generator must not silently change the
    # benchmark's traffic, and every pool entry is known green (a live batch
    # at root seed 18 held a schedule the linearizability checker rejects).
    pool = [schedule_from_dict(entry) for entry in json.loads(FUZZ_INPUTS.read_text())]
    trials = max(1, round(FUZZ_TRIALS * scale))
    if seed == DEFAULT_SEED:
        chosen = pool[:trials]
    else:
        chosen = random.Random(seed).sample(pool, trials)
    return [schedule.to_spec() for schedule in chosen], "frozen"


def _grid_cells(seed: int, scale: float) -> Tuple[List[ExperimentSpec], str]:
    # What bench.runner.run_cells does per cell — derive the seed, then
    # run_experiment — unrolled so each stage can be timed from outside.
    root_seed = GRID_ROOT_SEED if seed == DEFAULT_SEED else seed
    preset = SCALE_PRESETS["bench"]()
    specs = []
    for ratio in GRID_WRITE_RATIOS:
        for protocol in GRID_PROTOCOLS:
            spec = ExperimentSpec(
                protocol=protocol,
                num_replicas=5,
                write_ratio=ratio,
                zipfian_exponent=0.99,
                label=GRID_LABEL,
            ).with_scale(preset)
            spec = replace(spec, ops_per_client=_scaled(spec.ops_per_client, scale))
            specs.append(replace(spec, seed=derive_cell_seed(spec, root_seed)))
    return specs, "frozen" if seed == DEFAULT_SEED else "generated"


def _grid_baseline_errors(seed: int, scale: float, throughputs: List[float]) -> List[str]:
    """At the figure's own seed and size, each cell must equal its committed baseline."""
    if seed != DEFAULT_SEED or scale != 1.0:
        return []
    figures = json.loads(GRID_BASELINE.read_text())["results"]
    baseline = next(figure["data"] for figure in figures if figure["figure"] == GRID_LABEL)
    keys = [f"{protocol},{ratio}" for ratio in GRID_WRITE_RATIOS for protocol in GRID_PROTOCOLS]
    return [
        f"cell {key}: throughput {measured!r} != baseline {baseline[key]!r}"
        for key, measured in zip(keys, throughputs)
        if baseline[key] != measured
    ]


_ZIPF_20K = dict(zipfian_exponent=0.99, num_keys=20_000)

WORKLOADS: Dict[str, Workload] = {
    "read-heavy": Workload(_single(write_ratio=0.05, ops_per_client=4_000, **_ZIPF_20K)),
    "write-only": Workload(_single(write_ratio=1.0, num_keys=20_000, ops_per_client=700)),
    "sharded-txn": Workload(
        _single(
            shards=4,
            write_ratio=0.2,
            txn_fraction=0.1,
            txn_cross_shard=0.5,
            ops_per_client=1_600,
            **_ZIPF_20K,
        )
    ),
    "aggregated-open": Workload(
        _single(
            write_ratio=0.05,
            ops_per_client=3_200,
            client_model="aggregated",
            sessions=1_000_000,
            offered_load=2e6,
            **_ZIPF_20K,
        )
    ),
    # 32 equally hot keys, ~750 ops each, 20 sessions: checker cost grows with
    # per-key depth x overlap, and one zipfian hottest key made it swing
    # 2.9-8.5 s (0.4-1.26 GiB) between seeds. See README, "Design notes".
    "verify-skew": Workload(
        _single(
            write_ratio=0.2,
            num_keys=32,
            clients_per_replica=4,
            ops_per_client=1_200,
            record_history=True,
        ),
        verify=True,
    ),
    "fuzz-batch": Workload(_fuzz_cells, verify=True, per_cell_setup=True, median_of_cells=True),
    "protocol-grid": Workload(_grid_cells, per_cell_setup=True, check=_grid_baseline_errors),
}
