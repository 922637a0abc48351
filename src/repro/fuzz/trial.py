"""Run one fuzz schedule end to end and judge it with every checker.

A trial is the fuzzer's oracle call: build the schedule's experiment spec,
run it through the standard bench harness (:func:`repro.bench.harness.run_experiment`
— the same code path the figures use), and hand the recorded history to
:func:`repro.verification.check_all`. A raised exception counts as a
violating trial too: a fault schedule that crashes the harness is a finding,
not an infrastructure error to swallow.

:func:`run_trial` is a module-level function of one picklable argument on
purpose — it is the worker :func:`repro.bench.runner.parallel_map` fans out
across processes during campaigns.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bench.harness import ExperimentResult, build_workload, run_experiment
from repro.fuzz.schedule import FuzzSchedule
from repro.verification import check_all


@dataclass
class TrialOutcome:
    """Verdict of one fuzz trial.

    Attributes:
        schedule: The schedule that ran.
        ok: Whether the run completed and every checker passed.
        error: ``"ExcType: message"`` when the run itself raised, else None.
        violations: Checker counterexamples (prefixed with checker names).
        checkers: ``{checker name: ok}`` summary.
        duration: Simulated duration of the run.
        completed_ops: Operations that completed during the run.
        artifact_digest: SHA-256 over the run's per-operation records —
            two trials of one schedule must produce equal digests
            (determinism regression handle).
    """

    schedule: FuzzSchedule
    ok: bool
    error: Optional[str] = None
    violations: List[str] = field(default_factory=list)
    checkers: Dict[str, bool] = field(default_factory=dict)
    duration: float = 0.0
    completed_ops: int = 0
    artifact_digest: str = ""

    def describe(self) -> str:
        """One-line summary for campaign logs."""
        if self.error is not None:
            verdict = f"ERROR {self.error}"
        elif self.ok:
            verdict = f"ok ({self.completed_ops} ops)"
        else:
            verdict = f"VIOLATION {self.violations[:1]}"
        return f"{self.schedule.describe()} -> {verdict}"


def _artifact_digest(result: ExperimentResult) -> str:
    """A stable digest of everything the run observed.

    Operation ids come from a process-global counter (their *order* is
    deterministic per run, their absolute values depend on what ran before
    in the process), so they are normalized to dense per-run ranks — the
    digest must be identical across process layouts and repeat runs.
    """
    rank = {
        op_id: index
        for index, op_id in enumerate(sorted(record.op_id for record in result.results))
    }
    records = sorted(
        (
            rank[record.op_id],
            record.op_type.value,
            repr(record.key),
            repr(record.value),
            f"{record.start_time:.9f}",
            f"{record.end_time:.9f}",
            record.status.value,
        )
        for record in result.results
    )
    payload = repr((f"{result.duration:.9f}", records)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def run_trial(schedule: FuzzSchedule) -> TrialOutcome:
    """Run ``schedule`` and return its verdict."""
    spec = schedule.to_spec()
    initial_values = build_workload(spec).initial_dataset()
    try:
        result = run_experiment(spec)
        report = check_all(
            result.history,
            initial_values=initial_values,
            migration_records=result.migration_records,
        )
    except Exception as exc:  # noqa: BLE001 — a crashing run IS a finding
        return TrialOutcome(
            schedule=schedule, ok=False, error=f"{type(exc).__name__}: {exc}"
        )
    return TrialOutcome(
        schedule=schedule,
        ok=report.ok,
        violations=report.violations,
        checkers=report.summary(),
        duration=result.duration,
        completed_ops=len(result.results),
        artifact_digest=_artifact_digest(result),
    )


def schedule_violates(schedule: FuzzSchedule) -> bool:
    """Default shrinker oracle: does running ``schedule`` yield a violation?"""
    return not run_trial(schedule).ok
