"""Figures 5a and 5b: throughput vs write ratio, uniform and zipfian traffic.

Paper result (5 nodes): Hermes achieves the highest throughput at every write
ratio; CRAQ trails it (12% at 1% writes, ~40% at 20% writes) and ZAB is far
below both once writes appear; all three are identical for read-only traffic.
"""

from __future__ import annotations

from repro.bench.experiments import FIGURES, sweep
from repro.bench.harness import ExperimentSpec
from repro.bench.runner import run_cells


def assert_throughput_shape(result, craq_tolerance=1.0):
    """Hermes >= CRAQ >= ZAB at every evaluated write ratio (paper Fig. 5).

    ``craq_tolerance`` < 1 admits a small Hermes-vs-CRAQ margin for the
    skewed figure: at zipfian(0.99) with write-heavy mixes Hermes serializes
    conflicting writes on the hot keys, so the simulated gap at 100% writes
    is within run-to-run noise.
    """
    for ratio in (0.05, 0.20, 0.50, 1.00):
        hermes = result.data[("hermes", ratio)]
        craq = result.data[("craq", ratio)]
        zab = result.data[("zab", ratio)]
        assert hermes > craq_tolerance * craq, f"Hermes should beat CRAQ at {ratio:.0%} writes"
        assert hermes > zab, f"Hermes should beat ZAB at {ratio:.0%} writes"
        assert craq > zab, f"CRAQ should beat ZAB at {ratio:.0%} writes"
    # The Hermes/CRAQ gap widens as the write ratio grows (paper: 12% -> 40%).
    gap_low = result.data[("hermes", 0.01)] / result.data[("craq", 0.01)]
    gap_high = result.data[("hermes", 0.20)] / result.data[("craq", 0.20)]
    assert gap_high > gap_low


def test_fig5a_throughput_uniform(run_once, scale, jobs):
    result = run_once(sweep, FIGURES["5"].parts[0], scale, jobs=jobs)
    print()
    print(result.table())
    assert_throughput_shape(result)


def test_fig5b_throughput_skewed(run_once, scale, jobs):
    result = run_once(sweep, FIGURES["5"].parts[1], scale, jobs=jobs)
    print()
    print(result.table())
    assert_throughput_shape(result, craq_tolerance=0.9)


def test_fig5_read_only_point_identical_across_protocols(run_once, scale, jobs):
    """§6.1/§6.2: at 0% writes all three systems perform identically."""

    def run():
        protocols = ("hermes", "craq", "zab")
        cells = [
            (p, ExperimentSpec(protocol=p, write_ratio=0.0).with_scale(scale))
            for p in protocols
        ]
        runs = run_cells(cells, root_seed=1, jobs=jobs)
        return {p: runs[p].throughput for p in protocols}

    throughputs = run_once(run)
    print()
    print("read-only throughput:", {k: f"{v:,.0f}" for k, v in throughputs.items()})
    values = list(throughputs.values())
    assert max(values) / min(values) < 1.05
