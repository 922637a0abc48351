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
from concurrent.futures import ProcessPoolExecutor
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
    "run_membership": False,
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


#: Extra :class:`ExperimentSpec` field overrides applied to every grid cell
#: by :func:`run_cells` — the hook behind the CLI's ``--shards`` /
#: ``--shard-mode`` grid axes. Applied *before* per-cell seed derivation, so
#: overridden grids get their own deterministic seeds. Empty by default.
GRID_SPEC_OVERRIDES: Dict[str, Any] = {}


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
        spec_overrides: Field overrides applied to every cell's spec
            (defaults to the module-level :data:`GRID_SPEC_OVERRIDES`).

    Returns:
        Mapping from each cell key to its result.
    """
    keys = [key for key, _ in cells]
    if len(set(keys)) != len(keys):
        raise BenchmarkError("grid cell keys must be unique")
    overrides = GRID_SPEC_OVERRIDES if spec_overrides is None else spec_overrides
    if overrides:
        # A figure that sweeps an axis itself (any cell holds the field at a
        # non-default value — e.g. figure_shard_scale's shard axis) owns that
        # axis: overriding it would relabel the sweep, so the override is
        # dropped for that grid.
        effective = dict(overrides)
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


# --------------------------------------------------------- baseline diffing
#: Per-metric relative tolerances for ``--diff-baseline``, matched by the
#: first rule whose key is a substring of the metric's path (checked in
#: order). Artifacts are deterministic for a fixed code version, so a rerun
#: of unchanged code always diffs clean; the tolerances define how much a
#: *code change* may legitimately move each metric before CI calls it a
#: regression. Latency percentiles wobble more than means under protocol
#: tweaks; counter-like metrics (message counts, aborts) are the noisiest.
DEFAULT_DIFF_TOLERANCES: "List[Tuple[str, float]]" = [
    ("messages_sent", 0.25),
    ("rmws_aborted", 0.50),
    ("reconfiguration_times", 0.25),
    ("p99", 0.35),
    ("_us", 0.25),
    ("series", 0.50),
    ("ratio", 0.25),
    ("", 0.15),  # default: throughput-like metrics
]

#: Payload keys that are derived presentation (skipped when diffing).
_DIFF_SKIP_KEYS = frozenset({"rows", "notes"})


@dataclasses.dataclass
class DiffEntry:
    """One compared metric from a baseline diff."""

    figure: str
    path: str
    baseline: Any
    fresh: Any
    drift: float
    tolerance: float
    ok: bool


def _tolerance_for(path: str, tolerances: Sequence[Tuple[str, float]]) -> float:
    for key, tol in tolerances:
        if key in path:
            return tol
    return 0.0


def _relative_drift(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


def diff_payloads(
    figure: str,
    baseline: Any,
    fresh: Any,
    tolerances: Sequence[Tuple[str, float]] = (),
    path: str = "",
) -> List[DiffEntry]:
    """Compare two artifact payload fragments, returning one entry per leaf.

    Numeric leaves compare with the relative tolerance selected by the
    metric's path; all other leaves (strings, booleans, None) and the tree
    structure itself must match exactly. ``rows`` and ``notes`` are skipped
    — they are text renderings of the ``data`` numbers.
    """
    tolerances = tolerances or DEFAULT_DIFF_TOLERANCES
    entries: List[DiffEntry] = []

    def mismatch(p: str, a: Any, b: Any) -> None:
        entries.append(DiffEntry(figure, p, a, b, float("inf"), 0.0, False))

    def walk(a: Any, b: Any, p: str) -> None:
        if isinstance(a, dict) and isinstance(b, dict):
            keys_a = set(a) - _DIFF_SKIP_KEYS
            keys_b = set(b) - _DIFF_SKIP_KEYS
            for missing in sorted(keys_a ^ keys_b):
                mismatch(f"{p}/{missing}", a.get(missing, "<absent>"), b.get(missing, "<absent>"))
            for key in sorted(keys_a & keys_b):
                walk(a[key], b[key], f"{p}/{key}")
            return
        if isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                mismatch(f"{p}/len", len(a), len(b))
                return
            for index, (item_a, item_b) in enumerate(zip(a, b)):
                walk(item_a, item_b, f"{p}[{index}]")
            return
        numeric_a = isinstance(a, (int, float)) and not isinstance(a, bool)
        numeric_b = isinstance(b, (int, float)) and not isinstance(b, bool)
        if numeric_a and numeric_b:
            drift = _relative_drift(float(a), float(b))
            tolerance = _tolerance_for(p, tolerances)
            entries.append(DiffEntry(figure, p, a, b, drift, tolerance, drift <= tolerance))
            return
        if a != b:
            mismatch(p, a, b)

    walk(baseline, fresh, path)
    return entries


def parse_tolerance_overrides(specs: Sequence[str]) -> List[Tuple[str, float]]:
    """Parse repeated ``KEY=VALUE`` tolerance overrides (prepended to defaults)."""
    rules: List[Tuple[str, float]] = []
    for item in specs:
        key, sep, value = item.partition("=")
        if not sep:
            raise BenchmarkError(f"tolerance override {item!r} is not KEY=VALUE")
        try:
            rules.append((key, float(value)))
        except ValueError as exc:
            raise BenchmarkError(f"invalid tolerance value in {item!r}") from exc
    return rules + DEFAULT_DIFF_TOLERANCES


def diff_against_baseline(
    figure: str,
    fresh_payload: Dict[str, Any],
    baseline_dir: str,
    tolerances: Sequence[Tuple[str, float]] = (),
) -> Tuple[List[DiffEntry], List[str]]:
    """Diff a freshly produced figure payload against a committed baseline.

    Returns:
        ``(entries, errors)`` — per-metric comparisons plus fatal problems
        (missing baseline file, scale/seed mismatch).
    """
    errors: List[str] = []
    path = os.path.join(baseline_dir, artifact_name(figure))
    if not os.path.exists(path):
        return [], [f"no baseline artifact {path}"]
    with open(path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    for field_name in ("figure", "scale", "seed"):
        if baseline.get(field_name) != fresh_payload.get(field_name):
            errors.append(
                f"{figure}: baseline {field_name}={baseline.get(field_name)!r} does not match "
                f"fresh run {field_name}={fresh_payload.get(field_name)!r}"
            )
    if errors:
        return [], errors
    # Round-trip the fresh payload through JSON so both sides have identical
    # type/shape treatment (tuples become lists, keys become strings).
    fresh = json.loads(json.dumps(_jsonable(fresh_payload), sort_keys=True))
    return diff_payloads(figure, baseline, fresh, tolerances), errors


def write_diff_report(path: str, entries: List[DiffEntry], errors: List[str]) -> None:
    """Write the machine-readable diff report next to the artifacts.

    Structural mismatches carry ``drift=inf`` internally; the report maps
    them to ``null`` so the JSON stays strictly parseable (the bare
    ``Infinity`` token json.dump would emit is not valid JSON).
    """

    def finite(value: float) -> Optional[float]:
        return value if value != float("inf") else None

    failing = [e for e in entries if not e.ok]
    finite_drifts = [e.drift for e in entries if e.drift != float("inf")]
    payload = {
        "ok": not failing and not errors,
        "compared": len(entries),
        "failures": [
            {**dataclasses.asdict(e), "drift": finite(e.drift)} for e in failing
        ],
        "errors": errors,
        "structural_mismatches": sum(1 for e in entries if e.drift == float("inf")),
        "worst_drift": max(finite_drifts, default=0.0),
    }
    write_artifact(path, _jsonable(payload))


# ------------------------------------------------------------- figure CLI
# The figure table (repro.bench.experiments.FIGURES) is imported inside the
# functions that read it, never at module level: callers that only want the
# grid runner (perf/ imports SCALE_PRESETS and derive_cell_seed from here)
# must not pay for importing every figure's dependencies.


def _run_part(
    figure: "Figure", part: Any, scale: Scale, seed: int, jobs: Optional[int]  # noqa: F821
) -> Any:
    """Run one part of a declared figure with the arguments it takes."""
    from repro.bench.experiments import Grid, sweep

    if isinstance(part, Grid):
        return sweep(part, scale, seed, jobs)
    if figure.scaled:
        return part(scale=scale, seed=seed, jobs=jobs)
    if not figure.sharded:
        return part()  # a fixed table: no run arguments apply
    kwargs: Dict[str, Any] = {"seed": seed}
    # Forward --shards when the scenario can honour it; below its minimum
    # (e.g. --shards 1 with migrate in an --figure all sweep) the scenario's
    # own default applies — an *explicitly selected* figure with too few
    # shards is rejected up front by the CLI instead.
    shards = GRID_SPEC_OVERRIDES.get("shards")
    if shards is not None and shards >= figure.min_shards:
        kwargs["shards"] = shards
    shard_mode = GRID_SPEC_OVERRIDES.get("shard_mode")
    if shard_mode is not None:
        kwargs["shard_mode"] = shard_mode
    return part(**kwargs)


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

    Returns:
        The artifact payload (also written to disk when requested).
    """
    from repro.bench.experiments import FIGURES

    declared = FIGURES.get(figure)
    if declared is None:
        raise BenchmarkError(f"unknown figure {figure!r}; options: {sorted(FIGURES)}")
    payload: Dict[str, Any] = {
        "figure": figure,
        # Record the scale only when it was actually applied: stamping an
        # unapplied scale into a scale-independent figure's artifact would
        # defeat artifact diffing.
        "scale": scale.name if declared.scaled else None,
        "seed": seed,
        "results": [],
    }
    if GRID_SPEC_OVERRIDES:
        # Overridden grids are a different measurement; stamping the
        # overrides prevents their artifacts from diffing clean against
        # (or silently replacing) the default baselines.
        payload["spec_overrides"] = dict(GRID_SPEC_OVERRIDES)
    for part in declared.parts:
        result = _run_part(declared, part, scale, seed, jobs)
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
        help="override the key-range shard count of every grid cell; the "
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
    parser.add_argument(
        "--diff-baseline",
        metavar="DIR",
        help="compare the fresh run against committed BENCH_*.json baselines in "
        "DIR with per-metric tolerances; exit non-zero on drift",
    )
    parser.add_argument(
        "--diff-tolerance",
        action="append",
        default=[],
        metavar="KEY=REL",
        help="override a diff tolerance (path-substring = relative tolerance; "
        "repeatable, e.g. --diff-tolerance throughput=0.05)",
    )
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

    try:
        tolerances = parse_tolerance_overrides(args.diff_tolerance)
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
    previous_overrides = dict(GRID_SPEC_OVERRIDES)
    GRID_SPEC_OVERRIDES.clear()
    GRID_SPEC_OVERRIDES.update(overrides)
    try:
        return _run_figures(args, figures, scale, tolerances)
    finally:
        # In-process callers (tests, notebooks) must not inherit the CLI's
        # overrides as ambient state for later run_cells() calls.
        GRID_SPEC_OVERRIDES.clear()
        GRID_SPEC_OVERRIDES.update(previous_overrides)


def _run_figures(
    args: argparse.Namespace,
    figures: Sequence[str],
    scale: Scale,
    tolerances: Sequence[Tuple[str, float]],
) -> int:
    """Run the selected figures and (optionally) diff against baselines."""
    output_dir = None if args.no_artifacts else args.output_dir
    if output_dir is not None:
        os.makedirs(output_dir, exist_ok=True)
    entries: List[DiffEntry] = []
    errors: List[str] = []
    for figure in figures:
        payload = run_figure(
            figure,
            scale,
            seed=args.seed,
            jobs=args.jobs,
            output_dir=output_dir,
            print_tables=not args.quiet,
        )
        if args.diff_baseline:
            figure_entries, figure_errors = diff_against_baseline(
                figure, payload, args.diff_baseline, tolerances
            )
            entries.extend(figure_entries)
            errors.extend(figure_errors)

    if not args.diff_baseline:
        return 0

    failing = [e for e in entries if not e.ok]
    report_path = None
    if output_dir is not None:
        # --no-artifacts promises no files; the report is itself an artifact.
        report_path = os.path.join(output_dir, "BENCH_DIFF.json")
        write_diff_report(report_path, entries, errors)
    print(
        f"baseline diff vs {args.diff_baseline}: {len(entries)} metrics compared, "
        f"{len(failing)} out of tolerance, {len(errors)} errors"
        + (f" -> {report_path}" if report_path else "")
    )
    for error in errors:
        print(f"  ERROR {error}")
    for entry in failing[:20]:
        print(
            f"  DRIFT {entry.figure}{entry.path}: baseline={entry.baseline!r} "
            f"fresh={entry.fresh!r} drift={entry.drift:.3f} tol={entry.tolerance:.3f}"
        )
    if len(failing) > 20:
        where = f" (see {report_path})" if report_path else ""
        print(f"  ... and {len(failing) - 20} more{where}")
    return 1 if failing or errors else 0


if __name__ == "__main__":
    # Delegate to the canonically imported module so only one copy of this
    # module's globals (notably GRID_SPEC_OVERRIDES) is ever live — under
    # ``python -m`` this file executes as ``__main__`` while the figure
    # functions import ``repro.bench.runner``.
    from repro.bench.runner import main as _main

    sys.exit(_main())
