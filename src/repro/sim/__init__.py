"""Discrete-event simulation substrate.

This package provides the execution environment on which every replication
protocol in the library runs:

* :mod:`repro.sim.engine` — the event loop (:class:`Simulator`).
* :mod:`repro.sim.network` — a datacenter network model with configurable
  latency, loss, duplication, reordering, partitions and gray link faults;
  it pushes every copy of a message into its destination at send time.
* :mod:`repro.sim.node` — simulated processes with a CPU service-time model,
  an arrival inbox and the crash state (the network keeps none).
* :mod:`repro.sim.clock` — loosely synchronized clocks (paper §2.4).
* :mod:`repro.sim.rng` — deterministic random-number management.

The simulator substitutes for the paper's RDMA testbed; see DESIGN.md for the
substitution rationale.
"""

from repro.sim.clock import ClockConfig, LooselySynchronizedClock
from repro.sim.engine import EventHandle, Simulator
from repro.sim.network import Network, NetworkConfig, Partition
from repro.sim.node import NodeProcess, ServiceTimeModel
from repro.sim.rng import SeededRNG

__all__ = [
    "ClockConfig",
    "EventHandle",
    "LooselySynchronizedClock",
    "Network",
    "NetworkConfig",
    "NodeProcess",
    "Partition",
    "SeededRNG",
    "ServiceTimeModel",
    "Simulator",
]
