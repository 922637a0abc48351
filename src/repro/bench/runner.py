"""Parallel experiment runner and ``BENCH_*.json`` artifact pipeline.

Every paper figure is a grid of independent experiments (protocol x write
ratio x skew x replication degree). The cells share nothing — each builds
its own cluster, workload and RNG streams from an
:class:`~repro.bench.harness.ExperimentSpec` — so they are embarrassingly
parallel. This module fans a grid out across ``ProcessPoolExecutor``
workers and merges the per-cell :class:`~repro.bench.harness.ExperimentResult`
records back in submission order, which makes the output **bit-for-bit
identical for any worker count** (including fully serial execution).

Determinism is anchored by per-cell seeds: :func:`derive_cell_seed` hashes
the cell's spec (everything except its ``seed`` field) together with the
figure's root seed, so every cell gets a stable, collision-resistant seed
that does not depend on grid order, worker scheduling or Python hash
randomization.

Command-line interface::

    PYTHONPATH=src python -m repro.bench.runner --figure 5 --scale smoke --jobs 8

runs Figures 5a and 5b at smoke scale on 8 worker processes, prints the
text tables via :mod:`repro.analysis.report`, and writes ``BENCH_fig5.json``
into the output directory. ``--figure all`` reproduces the whole evaluation.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from dataclasses import replace
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.bench.harness import ExperimentResult, ExperimentSpec, Scale, run_experiment
from repro.errors import BenchmarkError

#: Named run-size presets accepted by ``--scale`` and ``REPRO_BENCH_SCALE``.
SCALE_PRESETS: Dict[str, Callable[[], Scale]] = {
    "smoke": Scale.smoke,
    "default": Scale.default,
    "thorough": Scale.thorough,
    # A compact preset tuned so the full figure suite stays fast while still
    # saturating the protocol bottlenecks the figures are about.
    "bench": lambda: Scale("bench", num_keys=2_000, clients_per_replica=12, ops_per_client=120),
}


def resolve_scale(name: str) -> Scale:
    """Look up a named scale preset (case-insensitive).

    Raises:
        BenchmarkError: if the name is unknown.
    """
    factory = SCALE_PRESETS.get(name.lower())
    if factory is None:
        raise BenchmarkError(
            f"unknown scale {name!r}; options: {sorted(SCALE_PRESETS)}"
        )
    return factory()


def default_jobs() -> int:
    """Worker count used when ``jobs`` is unspecified: all cores."""
    return max(1, os.cpu_count() or 1)


# ---------------------------------------------------------------- seeding
#: Spec fields excluded from the cell identity while they hold these default
#: values. This lets new grid axes (e.g. ``shards``) be added to
#: :class:`ExperimentSpec` without perturbing the derived seeds — and hence
#: the committed ``BENCH_*.json`` baselines — of every pre-existing cell.
_IDENTITY_NEUTRAL_DEFAULTS: Dict[str, Any] = {
    "shards": 1,
    "shard_mode": "coupled",
    "txn_fraction": 0.0,
    "txn_keys": 2,
    "txn_cross_shard": 0.0,
    "faults": (),
    "migrations": (),
    "membership": None,
    "allow_incomplete": False,
    "sessions": 0,
    "session_think_time": 0.0,
}

_MISSING = object()


def derive_cell_seed(spec: ExperimentSpec, root_seed: int) -> int:
    """A deterministic per-cell seed from ``(spec, root_seed)``.

    The spec's own ``seed`` field is excluded so the derivation is a pure
    function of the cell's identity (protocol, workload, sizes, configs) and
    the figure's root seed; fields listed in ``_IDENTITY_NEUTRAL_DEFAULTS``
    are excluded while they hold their default value. SHA-256 keeps the
    result stable across processes and Python hash randomization.
    """
    identity = sorted(
        (name, repr(value))
        for name, value in vars(spec).items()
        if name != "seed" and _IDENTITY_NEUTRAL_DEFAULTS.get(name, _MISSING) != value
    )
    payload = repr((identity, root_seed)).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:4], "big") % (2**31 - 1) + 1


# ------------------------------------------------------------ grid running
def parallel_map(
    worker: Callable[[Any], Any],
    tasks: Sequence[Any],
    jobs: Optional[int] = None,
) -> List[Any]:
    """Map ``worker`` over ``tasks`` across worker processes, keeping order.

    The one fan-out primitive shared by the figure grids (:func:`run_specs`)
    and the fault-schedule fuzzer's campaign loop (:mod:`repro.fuzz`): task
    submission order equals result order regardless of worker scheduling,
    ``jobs <= 1`` (or a single task) short-circuits to a serial in-process
    loop with no executor and no pickling, and ``worker``/``tasks`` must be
    picklable module-level callables/values when parallel.

    Args:
        worker: Module-level callable applied to each task.
        tasks: The task list; fully materialized before dispatch.
        jobs: Worker processes. ``None`` uses every core.

    Returns:
        ``[worker(task) for task in tasks]``, computed in parallel.
    """
    tasks = list(tasks)
    if jobs is None:
        jobs = default_jobs()
    if jobs <= 1 or len(tasks) <= 1:
        return [worker(task) for task in tasks]
    # Imported here: the pool machinery (multiprocessing, sockets, logging)
    # costs every serial run and every importer of this module otherwise.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        return list(pool.map(worker, tasks))


def _execute_spec(task: Tuple[ExperimentSpec, bool]) -> ExperimentResult:
    """Worker entry point: run one cell, optionally stripping bulky fields.

    Raw per-operation results (and any recorded history) are dropped before
    the result crosses the process boundary unless the caller asked for
    them; the reduced summaries are computed inside the worker either way,
    so stripping never changes the numbers.
    """
    spec, keep_results = task
    result = run_experiment(spec)
    if not keep_results:
        result.results = []
        result.history = None
    return result


def _execute_unit(unit: Tuple[str, ExperimentSpec, Any]) -> ExperimentResult:
    """Worker entry point for one schedulable unit: a whole cell or one shard.

    Parallel-sharded cells are split into per-shard units so independent
    shards occupy different worker processes; their raw per-operation
    results are kept (the parent needs them to merge latency summaries
    exactly as a serial run would).
    """
    kind, spec, arg = unit
    if kind == "shard":
        from repro.bench.harness import run_shard_experiment

        return run_shard_experiment(spec, arg)
    return _execute_spec((spec, arg))


def run_specs(
    specs: Sequence[ExperimentSpec],
    jobs: Optional[int] = None,
    keep_results: bool = False,
) -> List[ExperimentResult]:
    """Run experiments, in parallel when ``jobs`` allows, preserving order.

    Cells with ``shards > 1`` and ``shard_mode == "parallel"`` are expanded
    into one unit per shard, so fully independent shards run in separate
    worker processes; the per-shard results are merged (in shard order)
    into one result per cell. The merge is the same function a serial
    :func:`~repro.bench.harness.run_experiment` applies, so the output is
    identical for any worker count.

    Args:
        specs: The experiment grid, one spec per cell.
        jobs: Worker processes. ``None`` uses every core; ``0``/``1`` runs
            serially in-process (no executor, no pickling).
        keep_results: Keep raw per-operation results on each returned
            :class:`ExperimentResult` (costs IPC bandwidth when parallel).

    Returns:
        One :class:`ExperimentResult` per spec, in input order regardless of
        worker scheduling — serial and parallel runs produce identical
        output for identical specs.
    """
    from repro.bench.harness import merge_shard_results

    if jobs is None:
        jobs = default_jobs()
    units: List[Tuple[str, ExperimentSpec, Any]] = []
    layout: List[Tuple[str, ExperimentSpec, List[int]]] = []
    for spec in specs:
        if spec.shards > 1 and spec.shard_mode == "parallel":
            indices = list(range(len(units), len(units) + spec.shards))
            units.extend(("shard", spec, shard) for shard in range(spec.shards))
            layout.append(("shards", spec, indices))
        else:
            layout.append(("whole", spec, [len(units)]))
            units.append(("whole", spec, keep_results))
    outputs = parallel_map(_execute_unit, units, jobs=jobs)
    results: List[ExperimentResult] = []
    for kind, spec, indices in layout:
        if kind == "shards":
            merged = merge_shard_results(spec, [outputs[i] for i in indices])
            if not keep_results:
                merged.results = []
                merged.history = None
            results.append(merged)
        else:
            results.append(outputs[indices[0]])
    return results


def run_cells(
    cells: Sequence[Tuple[Hashable, ExperimentSpec]],
    root_seed: int,
    jobs: Optional[int] = None,
    keep_results: bool = False,
    spec_overrides: Optional[Dict[str, Any]] = None,
) -> Dict[Hashable, ExperimentResult]:
    """Run a keyed experiment grid with derived per-cell seeds.

    Args:
        cells: ``(key, spec)`` pairs; keys must be unique.
        root_seed: Figure-level seed mixed into every cell's derived seed.
        jobs: Worker processes (see :func:`run_specs`).
        keep_results: Keep raw per-operation results.
        spec_overrides: Field overrides applied to every cell's spec before
            its seed is derived, so an overridden grid gets its own
            deterministic seeds (the CLI's ``--shards``/``--shard-mode``).

    Returns:
        Mapping from each cell key to its result.
    """
    keys = [key for key, _ in cells]
    if len(set(keys)) != len(keys):
        raise BenchmarkError("grid cell keys must be unique")
    if spec_overrides:
        # A figure that sweeps an axis itself (any cell holds the field at a
        # non-default value — e.g. figure_shard_scale's shard axis) owns that
        # axis: overriding it would relabel the sweep, so the override is
        # dropped for that grid.
        effective = dict(spec_overrides)
        for name in list(effective):
            default = _IDENTITY_NEUTRAL_DEFAULTS.get(name, _MISSING)
            if default is not _MISSING and any(
                getattr(spec, name) != default for _, spec in cells
            ):
                del effective[name]
        if effective:
            cells = [(key, replace(spec, **effective)) for key, spec in cells]
    # shard_mode is meaningless without shards: normalize so e.g. a global
    # `--shard-mode parallel` without `--shards` stays a true no-op — same
    # cell identity, same derived seeds, same artifacts.
    cells = [
        (
            key,
            replace(spec, shard_mode="coupled")
            if spec.shards == 1 and spec.shard_mode != "coupled"
            else spec,
        )
        for key, spec in cells
    ]
    seeded = [
        replace(spec, seed=derive_cell_seed(spec, root_seed)) for _, spec in cells
    ]
    results = run_specs(seeded, jobs=jobs, keep_results=keep_results)
    return dict(zip(keys, results))


# ---------------------------------------------------------- JSON artifacts
def _jsonable(value: Any) -> Any:
    """Convert figure payloads (dataclasses, tuples, nested dicts) to JSON."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonable(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {_json_key(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _json_key(key: Any) -> str:
    """Flatten grid keys (often tuples) into stable strings."""
    if isinstance(key, tuple):
        return ",".join(str(part) for part in key)
    return str(key)


def figure_to_dict(result: "FigureResult") -> Dict[str, Any]:  # noqa: F821
    """Serialize a :class:`~repro.bench.experiments.FigureResult` to JSON."""
    return {
        "figure": result.figure,
        "headers": list(result.headers),
        "rows": _jsonable(result.rows),
        "data": _jsonable(result.data),
        "notes": result.notes,
    }


def write_artifact(path: str, payload: Dict[str, Any]) -> None:
    """Write a ``BENCH_*.json`` artifact with deterministic formatting."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ------------------------------------------------------------- figure CLI
# The figure table (repro.bench.experiments.FIGURES) is imported inside the
# functions that read it, never at module level: callers that only want the
# grid runner (perf/ imports SCALE_PRESETS and derive_cell_seed from here)
# must not pay for importing every figure's dependencies.


def _run_part(
    figure: "Figure",  # noqa: F821
    part: Any,
    scale: Scale,
    seed: int,
    jobs: Optional[int],
    overrides: Dict[str, Any],
) -> Any:
    """Run one part of a declared figure with the arguments it takes.

    ``overrides`` (the CLI's ``--shards``/``--shard-mode``) reach a grid as
    cell overrides and a sharded scenario as its ``shards`` argument. A scaled
    function gets neither: it owns its grids' shard axes, and the open-loop
    capacity probe is calibrated against the unsharded protocol.
    """
    from repro.bench.experiments import Grid, sweep

    if isinstance(part, Grid):
        return sweep(part, scale, seed, jobs, overrides)
    if figure.scaled:
        return part(scale=scale, seed=seed, jobs=jobs)
    if not figure.sharded:
        return part()  # a fixed table: no run arguments apply
    # Forward --shards when the scenario can honour it; below its minimum
    # (e.g. --shards 1 with migrate in an --figure all sweep) the scenario's
    # own default applies — an *explicitly selected* figure with too few
    # shards is rejected up front by the CLI instead.
    shards = overrides.get("shards")
    if shards is not None and shards >= figure.min_shards:
        return part(seed=seed, shards=shards)
    return part(seed=seed)


def artifact_name(figure: str) -> str:
    """The ``BENCH_*.json`` file name for a figure key."""
    if figure[0].isdigit():
        return f"BENCH_fig{figure}.json"
    return f"BENCH_{figure}.json"


def run_figure(
    figure: str,
    scale: Scale,
    seed: int = 1,
    jobs: Optional[int] = None,
    output_dir: Optional[str] = None,
    print_tables: bool = True,
    overrides: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Run one figure end to end: experiments, tables, JSON artifact.

    Args:
        figure: Figure key (``"5"``, ``"6"``, ..., ``"table2"``,
            ``"ablations"``).
        scale: Run-size preset for the underlying experiments.
        seed: Root seed for per-cell derivation.
        jobs: Worker processes for the grid.
        output_dir: Where to write the artifact; ``None`` skips writing.
        print_tables: Print each figure's text table to stdout.
        overrides: ``shards``/``shard_mode`` spec overrides (the CLI's
            ``--shards``/``--shard-mode``; see :func:`_run_part`).

    Returns:
        The artifact payload (also written to disk when requested).
    """
    from repro.bench.experiments import FIGURES

    declared = FIGURES.get(figure)
    if declared is None:
        raise BenchmarkError(f"unknown figure {figure!r}; options: {sorted(FIGURES)}")
    overrides = dict(overrides or {})
    payload: Dict[str, Any] = {
        "figure": figure,
        # Record the scale only when it was actually applied: stamping an
        # unapplied scale into a scale-independent figure's artifact would
        # make it differ from an identical run at another scale.
        "scale": scale.name if declared.scaled else None,
        "seed": seed,
        "results": [],
    }
    if overrides:
        # Overridden grids are a different measurement; stamping the
        # overrides keeps their artifacts from ever matching (or silently
        # replacing) the default baselines.
        payload["spec_overrides"] = overrides
    for part in declared.parts:
        result = _run_part(declared, part, scale, seed, jobs, overrides)
        if print_tables:
            print(result.table())
            if result.notes:
                print(f"  note: {result.notes}")
            print()
        payload["results"].append(figure_to_dict(result))
    if output_dir is not None:
        path = os.path.join(output_dir, artifact_name(figure))
        write_artifact(path, payload)
        if print_tables:
            print(f"wrote {path}")
    return payload


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser; ``--figure`` choices come from the figure table."""
    from repro.bench.experiments import FIGURES

    scenarios = [key for key, figure in FIGURES.items() if figure.sharded]
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.runner",
        description="Reproduce paper figures on parallel workers and emit BENCH_*.json artifacts.",
    )
    parser.add_argument(
        "--figure",
        action="append",
        dest="figures",
        choices=[*FIGURES, "all"],
        metavar="FIG",
        help=f"figure to run: {', '.join(FIGURES)}, or all (repeatable; default: all)",
    )
    parser.add_argument(
        "--scale",
        default=os.environ.get("REPRO_BENCH_SCALE", "bench"),
        help="run-size preset: smoke, bench, default, thorough "
        "(default: $REPRO_BENCH_SCALE or 'bench')",
    )
    parser.add_argument("--seed", type=int, default=1, help="root seed (default: 1)")
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="S",
        help="override the key-range shard count of every grid cell (figures "
        "that sweep shards themselves keep their own axis); the "
        f"bespoke figures {', '.join(scenarios[:-1])} and {scenarios[-1]} run "
        "their scenario on S shards (fixed tables are unaffected)",
    )
    parser.add_argument(
        "--shard-mode",
        choices=["coupled", "parallel"],
        default=None,
        help="how shards execute: 'coupled' shares node CPU/NIC inside one "
        "simulation, 'parallel' runs independent shards across worker "
        "processes (default: coupled)",
    )
    jobs_env = os.environ.get("REPRO_BENCH_JOBS")
    parser.add_argument(
        "--jobs",
        type=int,
        default=int(jobs_env) if jobs_env else None,
        help="worker processes (default: $REPRO_BENCH_JOBS or all cores; 1 = serial)",
    )
    parser.add_argument(
        "--output-dir",
        default=".",
        help="directory for BENCH_*.json artifacts (default: current directory)",
    )
    parser.add_argument(
        "--no-artifacts", action="store_true", help="skip writing BENCH_*.json files"
    )
    parser.add_argument("--quiet", action="store_true", help="suppress text tables")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point (``python -m repro.bench.runner``)."""
    from repro.bench.experiments import FIGURES

    parser = build_parser()
    args = parser.parse_args(argv)

    figures = args.figures or ["all"]
    if "all" in figures:
        figures = sorted(FIGURES)

    try:
        scale = resolve_scale(args.scale)
    except BenchmarkError as exc:
        parser.error(str(exc))

    if args.shards is not None and args.shards < 1:
        parser.error("--shards must be >= 1")
    if args.shards == 1 and args.figures:
        # Only when selected by name: a default/--figure all sweep with
        # --shards 1 runs the bespoke multi-shard figures at their own
        # default shard count instead (grid cells all run unsharded).
        sharded_only = [f for f in FIGURES if FIGURES[f].min_shards > 1 and f in args.figures]
        if sharded_only:
            parser.error(
                f"--figure {'/'.join(sharded_only)} needs at least two shards "
                "to move a key range between; use --shards >= 2 (default: 4)"
            )
    if args.shard_mode == "parallel" and (args.shards or 1) > 1:
        # Fail before any figure burns compute, with a clear message
        # instead of a mid-run traceback.
        coupled_only = [f for f in figures if not FIGURES[f].parallel]
        if any(not FIGURES[f].sharded for f in coupled_only):
            # A coupled-only grid: the open-loop sweep's Poisson sessions
            # cannot be split across independent shard simulations
            # (closed-loop replay only).
            parser.error(
                "--shard-mode parallel with --shards > 1 does not support the "
                "open-loop figure (closed-loop clients only); use --shard-mode "
                "coupled or select other figures"
            )
        membership_figures = [f for f in coupled_only if FIGURES[f].sharded]
        if membership_figures:
            # Membership/view-change scenarios need one shared simulation
            # that the RM service can reconfigure.
            parser.error(
                f"--shard-mode parallel cannot run the membership/view-change "
                f"figure(s) {membership_figures}: parallel execution runs each "
                "shard as an independent simulation, so there is no shared "
                "cluster for the RM service to reconfigure; use --shard-mode "
                "coupled (the default)"
            )
    overrides: Dict[str, Any] = {}
    if args.shards is not None:
        overrides["shards"] = args.shards
    if args.shard_mode is not None and overrides.get("shards", 1) > 1:
        # shard_mode without shards is a no-op; dropping it here keeps the
        # run (and its artifact payload) identical to a plain run.
        overrides["shard_mode"] = args.shard_mode
    return _run_figures(args, figures, scale, overrides)


def _run_figures(
    args: argparse.Namespace,
    figures: Sequence[str],
    scale: Scale,
    overrides: Dict[str, Any],
) -> int:
    """Run the selected figures, writing their artifacts unless told not to."""
    output_dir = None if args.no_artifacts else args.output_dir
    if output_dir is not None:
        os.makedirs(output_dir, exist_ok=True)
    for figure in figures:
        run_figure(
            figure,
            scale,
            seed=args.seed,
            jobs=args.jobs,
            output_dir=output_dir,
            print_tables=not args.quiet,
            overrides=overrides,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
