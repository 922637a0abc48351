"""Benchmark harness.

* :mod:`repro.bench.harness` — the experiment runner: builds a cluster from
  an :class:`ExperimentSpec`, drives it with closed-loop clients, and
  reduces the results to throughput and latency summaries.
* :mod:`repro.bench.experiments` — one function per paper figure/table
  (5a, 5b, 6a, 6b, 6c, 7, 8, 9, Table 2) plus the ablation studies listed in
  DESIGN.md. The ``benchmarks/`` pytest suite is a thin wrapper around these
  functions; they can also be called directly from scripts or notebooks.
* :mod:`repro.bench.runner` — the parallel grid runner and ``BENCH_*.json``
  artifact pipeline (``python -m repro.bench.runner --figure 5 --scale
  smoke --jobs 8``).

Host-speed measurement lives outside the package, in ``perf/`` (``python3
perf/bench.py``; see ``perf/README.md``).
"""

# NOTE: repro.bench.runner is deliberately NOT imported here: it is runnable
# as ``python -m repro.bench.runner`` and importing it from the package
# __init__ would trigger the double-import RuntimeWarning for that entry
# point. Import it explicitly (``from repro.bench.runner import run_cells``).

from repro.bench.harness import ExperimentResult, ExperimentSpec, Scale, run_experiment
from repro.bench.experiments import (
    ablation_optimizations,
    ablation_wings_batching,
    figure_5a_throughput_uniform,
    figure_5b_throughput_skew,
    figure_6a_latency_vs_throughput,
    figure_6b_latency_uniform,
    figure_6c_latency_skew,
    figure_7_scalability,
    figure_8_derecho,
    figure_9_failure,
    table_2_features,
)

__all__ = [
    "ExperimentResult",
    "ExperimentSpec",
    "Scale",
    "ablation_optimizations",
    "ablation_wings_batching",
    "figure_5a_throughput_uniform",
    "figure_5b_throughput_skew",
    "figure_6a_latency_vs_throughput",
    "figure_6b_latency_uniform",
    "figure_6c_latency_skew",
    "figure_7_scalability",
    "figure_8_derecho",
    "figure_9_failure",
    "run_experiment",
    "table_2_features",
]
