"""Unified verification facade.

The repository owns three whole-history oracles — per-key linearizability
(:mod:`repro.verification.linearizability`), transaction atomicity
(:mod:`repro.verification.transactions`) and live-migration atomicity
(:mod:`repro.verification.migration`) — each with its own result type.
:func:`check_all` runs every applicable checker over one recorded history
and returns a single structured :class:`VerificationReport`, so the
fault-schedule fuzzer's oracle loop (:mod:`repro.fuzz`) and the figures'
inline verification consume checker verdicts through one API instead of
hand-assembling them per call site.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.membership.service import MigrationRecord
from repro.types import Key, Value
from repro.verification.history import History, group_by_key
from repro.verification.linearizability import LinearizabilityChecker
from repro.verification.migration import check_migration
from repro.verification.transactions import check_transactions


@dataclass
class CheckerReport:
    """Verdict of one checker over one history.

    Attributes:
        name: Checker identifier (``"linearizability"``, ``"transactions"``,
            ``"migration"``).
        ok: Whether the checker found no violation.
        details: Checker-specific counters (operations considered, states
            explored, reads checked, ...), JSON-serializable.
        violations: Human-readable counterexample descriptions; empty when
            ``ok``.
    """

    name: str
    ok: bool
    details: Dict[str, int] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)


@dataclass
class VerificationReport:
    """Aggregated verdict of every checker run by :func:`check_all`.

    Attributes:
        checkers: One :class:`CheckerReport` per checker, in run order.
    """

    checkers: List[CheckerReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every checker passed."""
        return all(report.ok for report in self.checkers)

    @property
    def violations(self) -> List[str]:
        """Every violation found, prefixed with its checker's name."""
        return [
            f"[{report.name}] {violation}"
            for report in self.checkers
            for violation in report.violations
        ]

    def checker(self, name: str) -> Optional[CheckerReport]:
        """The named checker's report, or ``None`` if it did not run."""
        for report in self.checkers:
            if report.name == name:
                return report
        return None

    def passed(self, name: str) -> bool:
        """Whether the named checker ran and passed (False if absent)."""
        report = self.checker(name)
        return report is not None and report.ok

    def summary(self) -> Dict[str, bool]:
        """``{checker name: ok}`` for compact JSON artifacts."""
        return {report.name: report.ok for report in self.checkers}


def check_all(
    history: History,
    initial_values: Optional[Dict[Key, Value]] = None,
    migration_records: Sequence[MigrationRecord] = (),
    boundary_margin: float = 1e-3,
    max_states: int = 2_000_000,
) -> VerificationReport:
    """Run every applicable checker over ``history``.

    Args:
        history: The recorded client history of one run.
        initial_values: Preloaded dataset values, passed to the
            linearizability checker (reads of untouched keys must return
            them).
        migration_records: Completed live migrations of the run; one
            migration-atomicity check runs per record (aggregated into a
            single ``"migration"`` report). Empty skips the checker.
        boundary_margin: Freeze-boundary slack for the migration checker
            (see :func:`repro.verification.migration.check_migration`).
        max_states: Search budget per key for the linearizability checker;
            a key whose search exhausts it is reported as inconclusive (a
            violation entry saying so, counted in
            ``details["inconclusive_keys"]``), never as a pass.

    Returns:
        A :class:`VerificationReport` with one entry per checker run.
    """
    checkers: List[CheckerReport] = []
    # Built once and handed to every checker.
    operations = history.operations()

    lin_results = LinearizabilityChecker(max_states=max_states).check_keys(
        group_by_key(operations), initial_values
    )
    lin_violations = [
        f"key {result.key!r} sub-history of {result.operations} operations: "
        f"inconclusive: search budget of {max_states} states exhausted"
        if result.inconclusive
        else f"key {result.key!r} sub-history of {result.operations} operations "
        f"is not linearizable ({result.explored_states} states explored)"
        for result in lin_results
        if not result.linearizable
    ]
    checkers.append(
        CheckerReport(
            name="linearizability",
            ok=not lin_violations,
            details={
                "keys_checked": len(lin_results),
                "operations": sum(r.operations for r in lin_results),
                "explored_states": sum(r.explored_states for r in lin_results),
                "inconclusive_keys": sum(r.inconclusive for r in lin_results),
            },
            violations=lin_violations,
        )
    )

    txn_result = check_transactions(history, operations)
    checkers.append(
        CheckerReport(
            name="transactions",
            ok=txn_result.ok,
            details={
                "committed": txn_result.committed,
                "aborted": txn_result.aborted,
                "reads_checked": txn_result.reads_checked,
            },
            violations=list(txn_result.violations),
        )
    )

    if migration_records:
        ok = True
        keys_checked = 0
        reads_checked = 0
        violations: List[str] = []
        for record in migration_records:
            result = check_migration(
                history, record, boundary_margin=boundary_margin, operations=operations
            )
            ok = ok and result.ok
            keys_checked += result.keys_checked
            reads_checked += result.reads_checked
            violations.extend(result.violations)
        checkers.append(
            CheckerReport(
                name="migration",
                ok=ok,
                details={
                    "migrations": len(migration_records),
                    "keys_checked": keys_checked,
                    "reads_checked": reads_checked,
                },
                violations=violations,
            )
        )

    return VerificationReport(checkers=checkers)
