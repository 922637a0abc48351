"""Execution verification.

The paper model-checks Hermes in TLA+ for safety (linearizability) and
absence of deadlock under message reordering, duplication and crash-stop
failures. The Python reproduction checks the same properties on concrete
executions:

* :mod:`repro.verification.history` — indexes the clients' own
  :class:`~repro.types.Operation` records into invocation/response
  histories.
* :mod:`repro.verification.linearizability` — a per-key linearizability
  checker (Wing & Gong style search with memoization) applied to recorded
  histories, including histories produced under fault injection.
* :mod:`repro.verification.invariants` — cluster-level invariants such as
  replica convergence after quiescence.
* :mod:`repro.verification.transactions` — multi-key transaction
  atomicity: aborted transactions invisible, committed transactions free
  of fractured reads (see :mod:`repro.cluster.txn`).
* :mod:`repro.verification.migration` — live shard-migration atomicity:
  no operation observes pre-migration state after the routing flip (see
  :mod:`repro.cluster.sharding`).
* :mod:`repro.verification.report` — the :func:`check_all` facade running
  every applicable checker over one history and returning a structured
  :class:`VerificationReport` (used by the fault-schedule fuzzer's oracle
  loop and the figures' inline verification alike).
"""

from repro.verification.history import History, TransactionRecord
from repro.verification.migration import MigrationCheckResult, check_migration
from repro.verification.invariants import (
    check_no_pending_updates,
    check_replica_convergence,
    check_values_from_history,
)
from repro.verification.linearizability import LinearizabilityChecker, check_history
from repro.verification.report import CheckerReport, VerificationReport, check_all
from repro.verification.transactions import TxnCheckResult, check_transactions

__all__ = [
    "CheckerReport",
    "History",
    "LinearizabilityChecker",
    "MigrationCheckResult",
    "TransactionRecord",
    "TxnCheckResult",
    "VerificationReport",
    "check_all",
    "check_history",
    "check_migration",
    "check_no_pending_updates",
    "check_replica_convergence",
    "check_transactions",
    "check_values_from_history",
]
