"""Tests for the open-loop grid axis and workload presets."""

from __future__ import annotations

import pytest

from repro.bench.harness import ExperimentSpec, run_experiment
from repro.errors import BenchmarkError, WorkloadError
from repro.types import OpType
from repro.workloads import (
    WORKLOAD_PRESETS,
    get_preset,
    preset_spec_kwargs,
    preset_workload,
)


# ----------------------------------------------------------- open loop
def _open_spec(**overrides) -> ExperimentSpec:
    base = dict(
        protocol="hermes",
        num_replicas=3,
        write_ratio=0.1,
        num_keys=100,
        clients_per_replica=2,
        ops_per_client=30,
        client_model="open",
        offered_load=1.0e6,
        seed=3,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def test_open_loop_runs_and_completes_every_operation():
    result = run_experiment(_open_spec())
    assert len(result.results) == 3 * 2 * 30
    assert result.throughput > 0
    assert result.duration > 0


def test_open_loop_is_deterministic_for_a_seed():
    a = run_experiment(_open_spec())
    b = run_experiment(_open_spec())
    assert [r.end_time for r in a.results] == [r.end_time for r in b.results]
    assert a.throughput == b.throughput


def test_open_loop_delivers_roughly_the_offered_load_below_saturation():
    result = run_experiment(_open_spec(offered_load=0.5e6, ops_per_client=120))
    # Poisson noise on a finite run is large; just pin the right ballpark.
    assert 0.5 * 0.5e6 < result.throughput < 2.0 * 0.5e6


def test_open_loop_requires_offered_load():
    with pytest.raises(BenchmarkError):
        run_experiment(_open_spec(offered_load=None))


def test_unknown_client_model_rejected():
    with pytest.raises(BenchmarkError):
        run_experiment(_open_spec(client_model="half-open"))


def test_open_loop_latency_grows_past_saturation():
    low = run_experiment(_open_spec(offered_load=0.2e6, ops_per_client=60))
    high = run_experiment(_open_spec(offered_load=50.0e6, ops_per_client=60))
    assert high.overall_latency.p99_us > low.overall_latency.p99_us


# ------------------------------------------------------------- presets
def test_rmw_heavy_preset_composition():
    preset = get_preset("rmw-heavy")
    assert preset.write_ratio == 0.5
    assert preset.rmw_ratio == 1.0
    assert preset.zipfian_exponent is None


def test_preset_workload_generates_rmws():
    workload = preset_workload("rmw-heavy", num_keys=50, seed=2)
    ops = [workload.next_operation(0) for _ in range(200)]
    kinds = {op.op_type for op in ops}
    assert OpType.RMW in kinds
    assert OpType.READ in kinds
    assert OpType.WRITE not in kinds  # every update in this mix is an RMW


def test_preset_spec_kwargs_round_trip():
    spec = ExperimentSpec(**{"protocol": "hermes", **preset_spec_kwargs("skewed-rmw-heavy")})
    assert spec.write_ratio == 0.5
    assert spec.rmw_ratio == 1.0
    assert spec.zipfian_exponent == 0.99


def test_unknown_preset_raises():
    with pytest.raises(WorkloadError):
        get_preset("banana")


def test_all_presets_buildable():
    for name in WORKLOAD_PRESETS:
        assert preset_workload(name, num_keys=10) is not None
