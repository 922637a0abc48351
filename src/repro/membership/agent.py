"""Per-replica reliable-membership participant.

Every replica node owns a :class:`MembershipAgent`. The agent:

* answers liveness probes from the RM service,
* stores the replica's current membership view and lease,
* acts as a Paxos acceptor for membership reconfigurations,
* installs m-updates and notifies the owning protocol node via a callback.

In deployments where no failures are injected (most throughput benchmarks)
the agent can run in *static* mode: it is initialized with a view and an
infinite lease and the RM service is simply not started, avoiding the
(small) CPU cost of pings.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional

from repro.errors import LeaseExpired, NotInMembership, SimulationError
from repro.membership.messages import (
    Accept,
    Accepted,
    LeaseGrant,
    MembershipMessage,
    MUpdate,
    Nack,
    Ping,
    Pong,
    Prepare,
    Promise,
)
from repro.membership.paxos import PaxosAcceptor
from repro.membership.view import Lease, MembershipView
from repro.types import NodeId

#: Callback invoked when a new view is installed: ``callback(view)``.
ViewChangeCallback = Callable[[MembershipView], None]

#: Function used by the agent to send a message: ``send(dst, message, size)``.
SendFunction = Callable[[NodeId, MembershipMessage, int], None]


class MembershipAgent:
    """The membership participant co-located with a replica."""

    def __init__(
        self,
        node_id: NodeId,
        initial_view: MembershipView,
        send: SendFunction,
        local_clock: Callable[[], float],
        on_view_change: Optional[ViewChangeCallback] = None,
        static_lease: bool = True,
    ) -> None:
        self.node_id = node_id
        self.view = initial_view
        self._send = send
        self._local_clock = local_clock
        self._on_view_change = on_view_change
        expires = math.inf if static_lease else 0.0
        self.lease = Lease(epoch_id=initial_view.epoch_id, expires_at=expires)
        #: True when a running RM service owns this agent's leases. Only
        #: then does a crash invalidate the lease on recovery — without a
        #: service there is nothing to re-grant it (static mode).
        self.service_driven = False
        # One Paxos acceptor per reconfiguration instance, keyed by the epoch
        # being decided (i.e. current epoch + 1, +2, ... under retries).
        self._acceptors: Dict[int, PaxosAcceptor] = {}
        self.views_installed = 0

    # --------------------------------------------------------------- queries
    def is_operational(self) -> bool:
        """Whether this replica may serve requests (valid lease + member)."""
        if self.lease.expires_at == math.inf:
            # Static-lease mode (no RM service): skip the clock read — an
            # infinite lease is valid at every local time.
            return self.node_id in self.view.members
        return self.lease.valid(self._local_clock()) and self.view.contains(self.node_id)

    def require_operational(self) -> None:
        """Raise if the replica must not serve requests right now."""
        if not self.lease.valid(self._local_clock()):
            raise LeaseExpired(f"node {self.node_id} lease expired")
        if not self.view.contains(self.node_id):
            raise NotInMembership(f"node {self.node_id} not in epoch {self.view.epoch_id}")

    @property
    def epoch_id(self) -> int:
        """The epoch of the currently installed view."""
        return self.view.epoch_id

    def invalidate_lease(self) -> None:
        """Expire the lease immediately (a restarted process holds none).

        Called on node recovery when an RM service drives this agent: the
        replica may not serve again until a fresh lease or m-update
        arrives — and if the membership moved on while the node was down,
        neither ever will (the service only grants to view members), so a
        removed node stays non-operational after it restarts.
        """
        self.lease = Lease(epoch_id=self.view.epoch_id, expires_at=0.0)

    # -------------------------------------------------------------- messages
    def handle(self, src: NodeId, message: MembershipMessage) -> None:
        """Run the handler registered for ``message``'s exact class; a class
        with no handler raises ``SimulationError``."""
        handler = self.HANDLERS.get(message.__class__)
        if handler is None:
            raise SimulationError(
                f"membership agent {self.node_id} has no handler for "
                f"{type(message).__name__!r}"
            )
        handler(self, src, message)

    # ------------------------------------------------------------- internals
    def _on_ping(self, src: NodeId, message: Ping) -> None:
        self._send(src, Pong(sequence=message.sequence), Pong().size_bytes)

    def _on_stray_reply(self, src: NodeId, message: MembershipMessage) -> None:
        """Replica agents do not act as proposers; stray replies are dropped."""

    def _on_mupdate(self, src: NodeId, message: MUpdate) -> None:
        self._install_view(message.view, message.lease_duration)

    def _on_lease_grant(self, src: NodeId, message: LeaseGrant) -> None:
        if message.view.epoch_id < self.view.epoch_id:
            return
        if message.view.epoch_id > self.view.epoch_id:
            self._install_view(message.view, message.duration)
            return
        new_expiry = self._local_clock() + message.duration
        self.lease = self.lease.renewed(new_expiry)

    def _acceptor_for(self, instance: int) -> PaxosAcceptor:
        return self._acceptors.setdefault(instance, PaxosAcceptor())

    def _on_prepare(self, src: NodeId, message: Prepare) -> None:
        acceptor = self._acceptor_for(self.view.epoch_id + 1)
        promised, accepted_ballot, accepted_value = acceptor.on_prepare(message.ballot)
        if promised:
            reply = Promise(
                ballot=message.ballot,
                accepted_ballot=accepted_ballot,
                accepted_value=accepted_value,
            )
        else:
            reply = Nack(promised_ballot=acceptor.promised_ballot)
        self._send(src, reply, reply.size_bytes)

    def _on_accept(self, src: NodeId, message: Accept) -> None:
        acceptor = self._acceptor_for(self.view.epoch_id + 1)
        if acceptor.on_accept(message.ballot, message.value):
            reply: MembershipMessage = Accepted(ballot=message.ballot)
        else:
            reply = Nack(promised_ballot=acceptor.promised_ballot)
        self._send(src, reply, reply.size_bytes)

    def _install_view(self, view: MembershipView, lease_duration: float) -> None:
        if view.epoch_id <= self.view.epoch_id:
            return
        self.view = view
        expires = self._local_clock() + lease_duration if lease_duration else math.inf
        self.lease = Lease(epoch_id=view.epoch_id, expires_at=expires)
        self.views_installed += 1
        if self._on_view_change is not None:
            self._on_view_change(view)

    #: Message class -> handler, matched by exact class (:meth:`handle`).
    HANDLERS = {
        Ping: _on_ping,
        LeaseGrant: _on_lease_grant,
        Prepare: _on_prepare,
        Accept: _on_accept,
        MUpdate: _on_mupdate,
        **dict.fromkeys((Pong, Promise, Accepted, Nack), _on_stray_reply),
    }

