"""Contract test of the benchmark (collected by the tier-1 pytest run, < 30 s).

Guards what a later PR could break without noticing: the names the benchmark
emits against ``BENCHMARK.json``, the staged run in ``child.py`` against the
program's own ``run_experiment`` path, and the traced pass's accounting.
"""

from __future__ import annotations

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import child
from repro.bench.harness import run_experiment
from workloads import DEFAULT_SEED, WORKLOADS

PERF = Path(__file__).resolve().parent
CONTRACT = json.loads((PERF.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
QUICK = 0.1


def _names(section: str) -> list:
    return [entry["name"] for entry in CONTRACT[section]]


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(PERF / "bench.py"), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_contract_names_are_well_formed():
    names = _names("workloads") + _names("end_to_end") + _names("per_layer")
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert list(WORKLOADS) == _names("workloads")
    assert "setup_s" in _names("end_to_end")


def test_quick_run_emits_every_end_to_end_metric_for_every_workload(tmp_path):
    out = tmp_path / "quick.json"
    proc = _bench("--quick", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    reports = json.loads(out.read_text())["workloads"]
    assert list(reports) == _names("workloads")
    for workload, report in reports.items():
        assert report["errors"] == [], workload
        assert report["failed"] == 0 and report["attempted"] >= 1
        assert list(report["end_to_end"]) == _names("end_to_end")
        for name, row in report["end_to_end"].items():
            assert row["median"] > 0, (workload, name)
            assert f" {name} " in proc.stdout and row["unit"] in proc.stdout


def test_traced_run_emits_every_per_layer_metric_on_the_contract_line():
    proc = _bench("--quick", "--workload", "sharded-txn", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert list(line["metrics"]) == _names("per_layer")
    units = {entry["name"]: entry["unit"] for entry in CONTRACT["per_layer"]}
    assert {name: row["unit"] for name, row in line["metrics"].items()} == units
    assert line["metrics"]["cluster.txn.abort_fraction"]["value"] > 0


@pytest.mark.parametrize("workload", ["read-heavy", "sharded-txn"])
def test_staged_run_is_the_programs_own_path(workload):
    staged = child.run_workload(workload, DEFAULT_SEED, QUICK)
    (spec,), _ = WORKLOADS[workload].cells(DEFAULT_SEED, QUICK)
    result = run_experiment(spec)

    digest = hashlib.sha256()
    child.update_digest(digest, result.duration, result.results)
    assert staged["sim_digest"] == digest.hexdigest()
    assert staged["cell_throughputs"] == [result.throughput]
    assert staged["sim"]["latency_samples"] == result.overall_latency.count
    assert staged["sim"]["sim_p50_us"] == result.overall_latency.median * 1e6
    assert staged["sim"]["sim_p99_us"] == result.overall_latency.p99 * 1e6
    assert staged["counts"]["messages"] == result.cluster_stats["messages_sent"]
    assert staged["counts"]["txns_aborted"] == result.cluster_stats["txns_aborted"]


def test_traced_shares_cover_every_layer_and_sum_to_one():
    traced = child.run_workload("write-only", DEFAULT_SEED, QUICK, profile=True)
    shares = traced["shares"]
    assert {f"{layer}.self_share" for layer in shares} <= set(_names("per_layer"))
    assert sum(shares.values()) == pytest.approx(1.0, abs=0.01)
    assert shares["core"] > 0.1 and shares["verification"] == 0.0
