"""Hermes: the paper's replication protocol (§3).

The package is organized around the protocol's building blocks:

* :mod:`repro.core.timestamps` — per-key Lamport logical timestamps
  ``[version, cid]`` and the virtual-node-id scheme of optimization O2.
* :mod:`repro.core.state` — the per-key replica state machine
  (Valid / Invalid / Write / Replay / Trans) and :class:`HermesRecord`, a
  key's store record holding its value, state, timestamp and RMW flag.
* :mod:`repro.core.messages` — INV / ACK / VAL wire messages.
* :mod:`repro.core.config` — protocol configuration (mlt, optimizations).
* :mod:`repro.core.pending` — bookkeeping for in-flight coordinated updates
  and stalled requests.
* :mod:`repro.core.replica` — :class:`HermesReplica`, the full protocol:
  local reads, invalidation-based writes, RMWs, write replays, message-loss
  retransmission and membership-reconfiguration handling.
"""

from repro.core.config import HermesConfig
from repro.core.messages import Ack, Inv, Val
from repro.core.pending import PendingUpdate, StalledRequest
from repro.core.replica import HermesReplica
from repro.core.state import HermesRecord, KeyState
from repro.core.timestamps import Timestamp, VirtualNodeIds

__all__ = [
    "Ack",
    "HermesConfig",
    "HermesRecord",
    "HermesReplica",
    "Inv",
    "KeyState",
    "PendingUpdate",
    "StalledRequest",
    "Timestamp",
    "Val",
    "VirtualNodeIds",
]
