"""Workload generation.

The paper's evaluation drives the replicated KVS with YCSB-style request
streams: a key chosen from either a uniform or a zipfian (exponent 0.99)
distribution over one million keys, a configurable write ratio, and small
values (32 B by default, up to 1 KB for the Derecho comparison).

* :mod:`repro.workloads.distributions` — uniform and zipfian key pickers.
* :mod:`repro.workloads.generator` — request mixes (write ratio, RMW ratio,
  value sizes) producing :class:`~repro.types.Operation` streams.
* :mod:`repro.workloads.presets` — the benchmark grid's named mixes,
  including the RMW-heavy scenarios.
"""

from repro.workloads.distributions import (
    KeyDistribution,
    UniformKeys,
    ZipfianKeys,
)
from repro.workloads.generator import ValueFactory, WorkloadMix
from repro.workloads.presets import (
    WORKLOAD_PRESETS,
    WorkloadPreset,
    get_preset,
    preset_spec_kwargs,
    preset_workload,
)

__all__ = [
    "KeyDistribution",
    "UniformKeys",
    "ValueFactory",
    "WORKLOAD_PRESETS",
    "WorkloadMix",
    "WorkloadPreset",
    "ZipfianKeys",
    "get_preset",
    "preset_spec_kwargs",
    "preset_workload",
]
