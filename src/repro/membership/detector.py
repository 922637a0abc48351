"""Timeout-based failure detection.

Failure detectors in a partially synchronous system are necessarily
unreliable: they can suspect live nodes (false positives). The membership
machinery tolerates this because reconfiguration only happens after lease
expiration (paper §2.4), which is why the detector here is a simple
last-heartbeat timeout tracker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Set

from repro.errors import ConfigurationError
from repro.types import NodeId


@dataclass
class FailureDetectorConfig:
    """Configuration of the timeout-based failure detector.

    Attributes:
        ping_interval: How often the RM service probes each replica.
        detection_timeout: How long a replica may stay silent before it is
            suspected. Figure 9 of the paper uses a conservative 150 ms.
    """

    ping_interval: float = 10e-3
    detection_timeout: float = 150e-3

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` for invalid settings."""
        if self.ping_interval <= 0:
            raise ConfigurationError("ping_interval must be positive")
        if self.detection_timeout <= 0:
            raise ConfigurationError("detection_timeout must be positive")
        if self.detection_timeout < self.ping_interval:
            raise ConfigurationError("detection_timeout must be >= ping_interval")


class FailureDetector:
    """Tracks per-node heartbeats and reports suspected nodes."""

    def __init__(self, config: FailureDetectorConfig, monitored: Iterable[NodeId], now: float = 0.0):
        config.validate()
        self.config = config
        self._last_heard: Dict[NodeId, float] = {node: now for node in monitored}

    @property
    def monitored(self) -> Set[NodeId]:
        """The nodes currently being monitored."""
        return set(self._last_heard)

    def record_heartbeat(self, node: NodeId, time: float) -> None:
        """Record that ``node`` was heard from at ``time``."""
        if node in self._last_heard:
            self._last_heard[node] = max(self._last_heard[node], time)

    def add(self, node: NodeId, time: float) -> None:
        """Start monitoring an additional node."""
        self._last_heard.setdefault(node, time)

    def remove(self, node: NodeId) -> None:
        """Stop monitoring a node (e.g. after it was removed from the view)."""
        self._last_heard.pop(node, None)

    def suspected(self, time: float) -> Set[NodeId]:
        """Nodes that have been silent longer than the detection timeout."""
        timeout = self.config.detection_timeout
        return {
            node
            for node, last in self._last_heard.items()
            if time - last > timeout
        }
