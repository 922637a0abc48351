"""Bookkeeping for in-flight Hermes updates and stalled requests.

A coordinator tracks each update it is driving (write, RMW or replay) in a
:class:`PendingUpdate` until every live follower has acknowledged the
invalidation. Client requests that cannot be served immediately — reads or
writes that find the key in a non-Valid state — are parked in
:class:`StalledRequest` records attached to the key and re-examined whenever
the key's state changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set

from repro.core.timestamps import Timestamp
from repro.protocols.base import ClientCallback
from repro.sim.engine import EventHandle
from repro.types import Key, NodeId, Operation, Value


@dataclass(slots=True)
class PendingUpdate:
    """An update this replica is coordinating (paper CINV .. CVAL).

    One instance is allocated per update on the benchmark hot path, so the
    class is slotted and its ``acks`` set may be a pooled object handed in
    by the coordinating replica (returned to the pool at commit/abort).

    Attributes:
        key: Target key.
        ts: The update's logical timestamp.
        value: The value being installed (propagated in the INV).
        is_rmw: Whether the update is an RMW (affects conflict handling).
        is_replay: Whether this is a replay of another coordinator's write.
        op: The originating client operation, if any (replays triggered by a
            stalled read have no write operation of their own).
        callback: Completion callback for ``op``.
        acks: Physical node ids that have acknowledged the INV.
        superseded: True once a higher-timestamped concurrent write
            invalidated this coordinator (key moved to Trans) — triggers
            optimization O1 and the Invalid-on-commit rule.
        client_notified: Whether the client callback has already fired.
        mlt_timer: Handle of the retransmission timer.
        inv_broadcasts: Number of INV broadcasts (1 + retransmissions).
    """

    key: Key
    ts: Timestamp
    value: Value
    is_rmw: bool = False
    is_replay: bool = False
    op: Optional[Operation] = None
    callback: Optional[ClientCallback] = None
    acks: Set[NodeId] = field(default_factory=set)
    superseded: bool = False
    client_notified: bool = False
    mlt_timer: Optional[EventHandle] = None
    inv_broadcasts: int = 0

    def cancel_timer(self) -> None:
        """Cancel the retransmission timer if armed."""
        if self.mlt_timer is not None:
            self.mlt_timer.cancel()
            self.mlt_timer = None


@dataclass(slots=True)
class StalledRequest:
    """A client request parked on a key that is not currently serviceable.

    Attributes:
        op: The stalled operation.
        callback: Its completion callback.
        stalled_at: Simulated time at which the request stalled (used for
            diagnostics and for bounding worst-case blocking in tests).
        replay_timer: Handle of the mlt timer armed to trigger a write replay
            if the key stays Invalid too long (paper §3.4).
    """

    op: Operation
    callback: ClientCallback
    stalled_at: float
    replay_timer: Optional[EventHandle] = None

    def cancel_timer(self) -> None:
        """Cancel the replay timer if armed."""
        if self.replay_timer is not None:
            self.replay_timer.cancel()
            self.replay_timer = None
