"""Replication protocols.

The library implements the paper's protocol (Hermes, in :mod:`repro.core`)
and the baselines it is evaluated against, all over the same simulated
substrate and KVS so that performance differences isolate the protocol
itself (paper §5.1):

* :mod:`repro.protocols.base` — shared replica-node machinery, the one
  forwarded-write path of the orderer-based baselines, and the feature
  descriptors behind Table 2.
* :mod:`repro.protocols.craq` — CRAQ: chain replication with apportioned
  queries (CR plus local reads of clean keys).
* :mod:`repro.protocols.chain` — plain Chain Replication (CR): tail-only
  reads, chain writes.
* :mod:`repro.protocols.zab` — ZAB-style leader-based atomic broadcast.
* :mod:`repro.protocols.derecho` — a Derecho-like lock-step totally ordered
  multicast used for the Figure 8 comparison.
"""

from repro.protocols.base import (
    ClientCallback,
    ProtocolFeatures,
    ReplicaConfig,
    ReplicaNode,
    protocol_registry,
    register_protocol,
)
from repro.protocols.chain import ChainReplicationReplica
from repro.protocols.craq import CraqReplica
from repro.protocols.derecho import DerechoReplica
from repro.protocols.zab import ZabReplica

__all__ = [
    "ChainReplicationReplica",
    "ClientCallback",
    "CraqReplica",
    "DerechoReplica",
    "ProtocolFeatures",
    "ReplicaConfig",
    "ReplicaNode",
    "ZabReplica",
    "protocol_registry",
    "register_protocol",
]
