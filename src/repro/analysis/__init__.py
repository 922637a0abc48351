"""Result analysis, static lint and runtime sanitizer tooling.

* :mod:`repro.analysis.stats` — percentile and throughput computations over
  :class:`~repro.types.Operation` collections, plus windowed
  throughput time series (Figure 9).
* :mod:`repro.analysis.report` — plain-text table formatting used by
  the benchmark harness and EXPERIMENTS.md generation.
* :mod:`repro.analysis.lint` — stdlib-``ast`` determinism & aliasing linter
  with repo-specific rules (wall-clock reads, unseeded randomness, unordered
  iteration on the send path, ``id()``-keyed collections, message-dataclass
  hygiene, dispatcher exhaustiveness). Run as
  ``python -m repro.analysis.lint src/``.
* :mod:`repro.analysis.sanitize` — opt-in (``REPRO_SANITIZE=1``) runtime
  sanitizer: fingerprints message payloads at enqueue and re-verifies at
  delivery, guards cross-replica state access, and pins handler-time RNG
  draws to the node's seeded streams.
"""

from repro.analysis.report import format_table
from repro.analysis.sanitize import SanitizerError, sanitizer_enabled
from repro.analysis.stats import (
    LatencySummary,
    latency_summary,
    percentile,
    throughput,
    throughput_timeseries,
)

__all__ = [
    "LatencySummary",
    "SanitizerError",
    "format_table",
    "latency_summary",
    "percentile",
    "sanitizer_enabled",
    "throughput",
    "throughput_timeseries",
]
