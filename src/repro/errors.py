"""Exception hierarchy for the Hermes reproduction library.

All library-specific exceptions derive from :class:`ReproError` so that
callers can catch a single base class. Sub-hierarchies mirror the major
subsystems (simulation, protocol, membership, verification).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """An invalid configuration value or combination was supplied."""


class SimulationError(ReproError):
    """Base class for errors raised by the discrete-event simulator."""


class SimulationDeadlock(SimulationError):
    """The simulator ran out of events before the run condition was met."""


class ProtocolError(ReproError):
    """Base class for replication-protocol errors."""


class InvalidTransition(ProtocolError):
    """A per-key state machine was asked to make an illegal transition."""


class MembershipError(ReproError):
    """Base class for reliable-membership errors."""


class LeaseExpired(MembershipError):
    """A node attempted an operation without a valid membership lease."""


class NotInMembership(MembershipError):
    """A node that is not part of the current membership attempted an operation."""


class KVSError(ReproError):
    """Base class for key-value store errors."""


class KeyNotFound(KVSError):
    """The requested key is not present in the store."""


class VerificationError(ReproError):
    """Base class for history / invariant verification errors."""


class HistoryError(VerificationError):
    """A recorded history is malformed (e.g. completion without invocation)."""


class WorkloadError(ReproError):
    """An invalid workload specification was supplied."""


class BenchmarkError(ReproError):
    """An experiment harness was misconfigured or produced inconsistent output."""
