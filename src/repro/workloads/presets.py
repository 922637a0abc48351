"""Named workload presets shared by the benchmark grid and examples.

The paper's figures sweep write ratio and skew directly; the grid in
:mod:`repro.bench.experiments` additionally speaks in terms of named mixes
so that RMW-heavy and skewed scenarios are first-class, reusable axes
(ROADMAP: "grow the grid with open-loop (Poisson) load points and RMW-heavy
mixes"), including combinations YCSB does not name (e.g. a uniform
RMW-heavy mix).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import WorkloadError
from repro.workloads.distributions import KeyDistribution, UniformKeys, ZipfianKeys
from repro.workloads.generator import WorkloadMix


@dataclass(frozen=True)
class WorkloadPreset:
    """A named operation mix over a key distribution.

    Attributes:
        name: Preset identifier.
        description: Human-readable summary.
        write_ratio: Fraction of operations that are updates.
        rmw_ratio: Fraction of *updates* that are RMWs (so an ``rmw-heavy``
            preset with ``write_ratio=0.5, rmw_ratio=1.0`` issues 50% reads
            and 50% RMWs).
        zipfian_exponent: ``None`` for uniform keys, otherwise the exponent.
    """

    name: str
    description: str
    write_ratio: float
    rmw_ratio: float
    zipfian_exponent: Optional[float] = None


#: The benchmark grid's named mixes.
WORKLOAD_PRESETS: Dict[str, WorkloadPreset] = {
    "read-heavy": WorkloadPreset(
        "read-heavy", "95% reads / 5% writes, uniform keys", 0.05, 0.0
    ),
    "update-heavy": WorkloadPreset(
        "update-heavy", "50% reads / 50% writes, uniform keys", 0.50, 0.0
    ),
    "write-only": WorkloadPreset(
        "write-only", "100% writes, uniform keys", 1.00, 0.0
    ),
    "rmw-heavy": WorkloadPreset(
        "rmw-heavy", "50% reads / 50% RMWs, uniform keys", 0.50, 1.0
    ),
    "skewed-read-heavy": WorkloadPreset(
        "skewed-read-heavy", "95% reads / 5% writes, zipfian(0.99)", 0.05, 0.0, 0.99
    ),
    "skewed-rmw-heavy": WorkloadPreset(
        "skewed-rmw-heavy", "50% reads / 50% RMWs, zipfian(0.99)", 0.50, 1.0, 0.99
    ),
}


def get_preset(name: str) -> WorkloadPreset:
    """Look up a preset by name.

    Raises:
        WorkloadError: if the preset name is unknown.
    """
    preset = WORKLOAD_PRESETS.get(name)
    if preset is None:
        raise WorkloadError(
            f"unknown workload preset {name!r}; known: {sorted(WORKLOAD_PRESETS)}"
        )
    return preset


def preset_workload(
    name: str,
    num_keys: int,
    value_size: int = 32,
    seed: int = 1,
) -> WorkloadMix:
    """Build a :class:`WorkloadMix` for a named preset."""
    preset = get_preset(name)
    distribution: KeyDistribution
    if preset.zipfian_exponent is None:
        distribution = UniformKeys(num_keys)
    else:
        distribution = ZipfianKeys(num_keys, exponent=preset.zipfian_exponent)
    return WorkloadMix(
        distribution=distribution,
        write_ratio=preset.write_ratio,
        rmw_ratio=preset.rmw_ratio,
        value_size=value_size,
        seed=seed,
    )


def preset_spec_kwargs(name: str) -> Dict[str, object]:
    """The :class:`~repro.bench.harness.ExperimentSpec` fields for a preset.

    Usage::

        spec = replace(base_spec, **preset_spec_kwargs("rmw-heavy"))
    """
    preset = get_preset(name)
    return {
        "write_ratio": preset.write_ratio,
        "rmw_ratio": preset.rmw_ratio,
        "zipfian_exponent": preset.zipfian_exponent,
    }
