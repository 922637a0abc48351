"""Figure 8: single-threaded Hermes vs Derecho, write-only workload.

Paper result: Hermes outperforms Derecho by an order of magnitude at 32 B
objects and by ~3x at 1 KB; Hermes' own throughput decreases as objects grow.
"""

from __future__ import annotations

from repro.bench.experiments import FIGURES, sweep


def test_fig8_hermes_vs_derecho(run_once, scale, jobs):
    result = run_once(sweep, FIGURES["8"].parts[0], scale, jobs=jobs)
    print()
    print(result.table())

    # Hermes wins at every object size, by the largest factor at 32 B.
    for size in (32, 256, 1024):
        assert result.data[size]["hermes"] > result.data[size]["derecho"]
    assert result.data[32]["ratio"] >= 3.0
    assert result.data[32]["ratio"] >= result.data[1024]["ratio"]

    # Hermes throughput decreases as the object size grows (more bytes per
    # request), mirroring the paper's curve.
    assert result.data[32]["hermes"] > result.data[1024]["hermes"]
