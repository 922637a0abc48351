"""The parallel experiment runner: determinism, seeding, artifacts, CLI."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.experiments import FIGURES, Grid, sweep
from repro.bench.harness import ExperimentSpec, Scale
from repro.bench.runner import (
    artifact_name,
    derive_cell_seed,
    figure_to_dict,
    main,
    resolve_scale,
    run_cells,
    run_specs,
    write_artifact,
)
from repro.errors import BenchmarkError

REPO_ROOT = Path(__file__).resolve().parent.parent

#: A deliberately tiny scale so parallel/serial comparisons stay fast.
TINY = Scale("tiny", num_keys=100, clients_per_replica=2, ops_per_client=25)


def tiny_spec(**kwargs) -> ExperimentSpec:
    defaults = dict(num_replicas=3, write_ratio=0.2, seed=3)
    defaults.update(kwargs)
    return ExperimentSpec(**defaults).with_scale(TINY)


# ----------------------------------------------------------------- seeding
def test_derive_cell_seed_is_stable():
    spec = tiny_spec(protocol="hermes")
    assert derive_cell_seed(spec, 1) == derive_cell_seed(spec, 1)


def test_derive_cell_seed_ignores_spec_seed_field():
    assert derive_cell_seed(tiny_spec(seed=1), 7) == derive_cell_seed(tiny_spec(seed=99), 7)


def test_derive_cell_seed_distinguishes_cells_and_roots():
    hermes = tiny_spec(protocol="hermes")
    craq = tiny_spec(protocol="craq")
    assert derive_cell_seed(hermes, 1) != derive_cell_seed(craq, 1)
    assert derive_cell_seed(hermes, 1) != derive_cell_seed(hermes, 2)


# ----------------------------------------------------- serial == parallel
def summary_tuple(result):
    return (
        result.spec.protocol,
        result.spec.seed,
        result.throughput,
        result.duration,
        result.overall_latency,
        result.read_latency,
        result.write_latency,
        result.cluster_stats,
    )


def test_parallel_run_matches_serial_bit_for_bit():
    specs = [
        tiny_spec(protocol="hermes", write_ratio=0.05),
        tiny_spec(protocol="craq", write_ratio=0.05),
        tiny_spec(protocol="hermes", write_ratio=0.5),
        tiny_spec(protocol="zab", write_ratio=0.5),
    ]
    serial = run_specs(specs, jobs=1)
    parallel = run_specs(specs, jobs=2)
    assert [summary_tuple(r) for r in serial] == [summary_tuple(r) for r in parallel]


def test_run_cells_derives_seeds_and_preserves_keys():
    cells = [
        ("a", tiny_spec(protocol="hermes")),
        ("b", tiny_spec(protocol="craq")),
    ]
    results = run_cells(cells, root_seed=1, jobs=1)
    assert set(results) == {"a", "b"}
    assert results["a"].spec.seed == derive_cell_seed(tiny_spec(protocol="hermes"), 1)


def test_run_cells_rejects_duplicate_keys():
    cells = [("x", tiny_spec()), ("x", tiny_spec(protocol="craq"))]
    with pytest.raises(BenchmarkError):
        run_cells(cells, root_seed=1, jobs=1)


def test_run_specs_strips_raw_results_by_default():
    [bare] = run_specs([tiny_spec()], jobs=1)
    assert bare.results == []
    [full] = run_specs([tiny_spec()], jobs=1, keep_results=True)
    assert len(full.results) == 3 * 2 * 25


# ------------------------------------------------------------- artifacts
def tiny_sweep(protocols, write_ratios, jobs):
    """A tiny write-ratio grid tabulated by Figure 5's row reducer."""
    grid = Grid(
        title="tiny sweep",
        headers=["write_ratio", *protocols],
        notes="",
        cells=lambda scale: [
            ((protocol, ratio), tiny_spec(protocol=protocol, write_ratio=ratio))
            for ratio in write_ratios
            for protocol in protocols
        ],
        rows=FIGURES["5"].parts[0].rows,
    )
    return sweep(grid, TINY, jobs=jobs)


def test_figure_artifact_identical_for_any_worker_count(tmp_path):
    dumps = []
    for jobs in (1, 3):
        figure = tiny_sweep(("hermes", "craq"), (0.05, 0.5), jobs)
        path = tmp_path / f"jobs{jobs}.json"
        write_artifact(str(path), figure_to_dict(figure))
        dumps.append(path.read_bytes())
    assert dumps[0] == dumps[1]


def test_figure_to_dict_flattens_tuple_keys():
    figure = tiny_sweep(("hermes",), (0.2,), jobs=1)
    payload = figure_to_dict(figure)
    assert payload["data"] == {"hermes,0.2": figure.data[("hermes", 0.2)]}
    json.dumps(payload)  # round-trippable


def test_artifact_name():
    assert artifact_name("5") == "BENCH_fig5.json"
    assert artifact_name("table2") == "BENCH_table2.json"


def test_resolve_scale_names_and_errors():
    assert resolve_scale("SMOKE").name == "smoke"
    assert resolve_scale("bench").name == "bench"
    with pytest.raises(BenchmarkError):
        resolve_scale("galactic")


# ------------------------------------------------------------------- CLI
def test_cli_table2_writes_artifact(tmp_path, capsys):
    assert main(["--figure", "table2", "--output-dir", str(tmp_path), "--jobs", "1"]) == 0
    payload = json.loads((tmp_path / "BENCH_table2.json").read_text())
    assert payload["figure"] == "table2"
    assert payload["results"][0]["headers"][0] == "system"
    out = capsys.readouterr().out
    assert "Table 2" in out


def test_cli_rejects_unknown_figure(tmp_path):
    with pytest.raises(SystemExit):
        main(["--figure", "42", "--output-dir", str(tmp_path)])


# ------------------------------------------- benchmark-suite collection
def test_benchmark_suite_collects_cleanly():
    """Regression: ``python -m pytest`` at the repo root must collect the
    benchmarks tree without ImportError (the modules used package-relative
    conftest imports that break under rootdir collection)."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "benchmarks"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "error" not in proc.stdout.lower()


def test_runner_import_leaves_the_process_pool_unloaded():
    """The pool machinery is imported only where a pool is opened: a serial
    run, or any importer of the runner, never pays for it."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    probe = (
        "import sys, repro, repro.bench.runner; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
