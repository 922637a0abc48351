"""Credit-based flow control.

Wings manages buffer space at receivers with credits (paper §4.2): a sender
may only transmit while it holds credits for the destination. Credits are
replenished either *implicitly* — a response to a request doubles as a credit
update (HermesKV treats ACKs this way) — or *explicitly* via small
header-only credit-update messages (used for VALs, which have no response).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

from repro.errors import ConfigurationError
from repro.types import NodeId


@dataclass(slots=True)
class ExplicitCreditUpdate:
    """A header-only message returning credits to a sender."""

    credits: int = 1

    @property
    def size_bytes(self) -> int:
        """Explicit credit updates carry no payload (immediate header only)."""
        return 0


@dataclass
class CreditConfig:
    """Configuration of credit-based flow control.

    Attributes:
        initial_credits: Credits available per peer at start (receiver buffer
            slots reserved for this sender).
        explicit_update_threshold: A receiver accumulates this many consumed
            slots before sending one explicit credit-update message back.
    """

    initial_credits: int = 32
    explicit_update_threshold: int = 8

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` for invalid settings."""
        if self.initial_credits < 1:
            raise ConfigurationError("initial_credits must be >= 1")
        if self.explicit_update_threshold < 1:
            raise ConfigurationError("explicit_update_threshold must be >= 1")


class CreditManager:
    """Tracks send credits toward each peer and owed credit returns.

    The manager plays both roles: as a *sender* it tracks how many messages
    may still be sent to each peer; as a *receiver* it tracks how many
    consumed buffer slots it owes back to each peer and when an explicit
    update is due.
    """

    def __init__(self, peers: Iterable[NodeId], config: CreditConfig) -> None:
        config.validate()
        self.config = config
        self._available: Dict[NodeId, int] = {p: config.initial_credits for p in peers}
        self._owed: Dict[NodeId, int] = {p: 0 for p in peers}
        self.stalls = 0

    # ---------------------------------------------------------------- sender
    def consume(self, dst: NodeId, count: int = 1) -> bool:
        """Consume ``count`` credits toward ``dst``.

        Returns:
            True on success; False (and records a stall) when insufficient
            credits are available.
        """
        available = self._available.get(dst, 0)
        if available < count:
            self.stalls += 1
            return False
        self._available[dst] = available - count
        return True

    def replenish(self, dst: NodeId, count: int = 1) -> None:
        """Return credits for ``dst`` (implicit or explicit update received)."""
        current = self._available.get(dst, 0)
        self._available[dst] = min(self.config.initial_credits, current + count)

    def available(self, dst: NodeId) -> int:
        """Credits currently available toward ``dst``."""
        return self._available.get(dst, 0)

    # -------------------------------------------------------------- receiver
    def on_message_received(self, src: NodeId) -> int:
        """Record receipt of a message from ``src``.

        Returns:
            The number of credits to return via an explicit update right now
            (0 if the threshold has not yet been reached — the caller may
            instead piggyback an implicit credit on its response).
        """
        owed = self._owed.get(src, 0) + 1
        if owed >= self.config.explicit_update_threshold:
            self._owed[src] = 0
            return owed
        self._owed[src] = owed
        return 0

    def on_implicit_credit(self, src: NodeId, count: int = 1) -> None:
        """Record that a response carried an implicit credit for ``src``."""
        self._owed[src] = max(0, self._owed.get(src, 0) - count)

    def owed_to(self, src: NodeId) -> int:
        """Credits currently owed to ``src`` and not yet returned."""
        return self._owed.get(src, 0)
