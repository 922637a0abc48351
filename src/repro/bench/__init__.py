"""Benchmark harness.

* :mod:`repro.bench.harness` — the experiment runner: builds a cluster from
  an :class:`ExperimentSpec`, drives it with closed-loop clients, and
  reduces the results to throughput and latency summaries.
* :mod:`repro.bench.experiments` — the figure table: ``FIGURES`` maps every
  ``--figure`` key (Figures 5-9, Table 2, the ablations and the scenario
  figures) to its declared parts — experiment grids run by ``sweep``, or
  scenario functions. The ``benchmarks/`` pytest suite asserts the shape of
  each part; they can also be run directly from scripts or notebooks.
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
# The figure table is not imported either: importing the package (and with
# it the runner) must not import every figure's dependencies.

from repro.bench.harness import ExperimentResult, ExperimentSpec, Scale, run_experiment

__all__ = [
    "ExperimentResult",
    "ExperimentSpec",
    "Scale",
    "run_experiment",
]
