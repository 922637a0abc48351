"""Live shard-migration atomicity checking.

A live migration (see :mod:`repro.membership.service` for the orchestration
and :mod:`repro.cluster.sharding` for the execution) transfers a slice of
one shard's key range to another shard while clients keep issuing requests.
Its correctness contract is: **no operation may observe pre-migration state
after the routing flip**. Concretely, once the ``active`` view installs,
every read of a migrated key must return either the frozen value the copy
transferred (the last pre-migration version) or the value of a write issued
during/after the migration window (parked writes are applied at the target
after the flip, so they order after the copy).

A violation means the flip exposed a stale replica — e.g. the copy missed
a key, a router flipped before the target held the copied state, or a
parked write was released to the source shard. The workload's unique
written values make the check direct: a post-flip read returning a value
that some pre-freeze write produced (and that is not the frozen value) has
observed pre-migration state.

The check is deliberately conservative about the freeze boundary: writes
*invoked* at or after ``freeze_time`` are treated as migration-era writes
(they may have been parked and applied at the target), so only values that
are unambiguously pre-migration can trigger a violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.membership.service import MigrationRecord
from repro.types import Key, Operation, OpStatus, OpType
from repro.verification.history import History, value_key


@dataclass
class MigrationCheckResult:
    """Outcome of checking a history against one completed migration.

    Attributes:
        ok: Whether no post-flip read observed pre-migration state.
        keys_checked: Migrated keys that appeared in the history.
        reads_checked: Post-flip reads of migrated keys examined.
        violations: Human-readable descriptions of every violation found.
    """

    ok: bool
    keys_checked: int
    reads_checked: int
    violations: List[str] = field(default_factory=list)


def check_migration(
    history: History,
    record: MigrationRecord,
    boundary_margin: float = 1e-3,
    operations: Optional[Sequence[Operation]] = None,
) -> MigrationCheckResult:
    """Check that no operation observed pre-migration state after the flip.

    Args:
        history: The recorded client history of the run.
        record: The completed migration (the RM service's
            :class:`~repro.membership.service.MigrationRecord`, carrying the
            frozen per-key values and the freeze/flip instants).
        boundary_margin: How far before the service-side ``freeze_time`` a
            write's invocation may lie and still count as migration-era.
            ``freeze_time`` is stamped when the service *sends* the
            ``preparing`` view; each node installs it a propagation delay
            later, and a write invoked just before the stamp can arrive
            after its node's install, be parked, and be legitimately
            applied at the target — treating it as pre-migration would be
            a false violation. The margin must cover the m-update
            propagation plus the client request latency (defaults are a
            few microseconds; 1 ms is comfortably conservative while still
            far below any realistic pre/post measurement window).
        operations: ``history.operations()``, when the caller already holds
            it (:func:`repro.verification.report.check_all` builds it once
            for every checker and every migration record).

    Returns:
        A :class:`MigrationCheckResult`; ``result.ok`` is True when every
        read of a migrated key invoked after the flip returned the frozen
        value or a migration-era (invoked at/after the freeze boundary)
        write's value.
    """
    migrated: Dict[Key, object] = {
        key: value_key(value) for key, value in record.values.items()
    }
    freeze_time = record.freeze_time - boundary_margin
    flip_time = record.flip_time
    #: Per migrated key: values allowed in post-flip reads beyond the
    #: frozen value — writes invoked at/after the freeze (parked writes
    #: apply at the target after the copy, so they supersede it).
    later_values: Dict[Key, Set[object]] = {key: set() for key in migrated}
    keys_seen: Set[Key] = set()
    if operations is None:
        operations = history.operations()
    for op in operations:
        key = op.key
        if key not in migrated:
            continue
        keys_seen.add(key)
        if op.op_type.is_update and op.start_time >= freeze_time:
            later_values[key].add(value_key(op.payload))

    reads_checked = 0
    violations: List[str] = []
    for op in operations:
        key = op.key
        if key not in migrated:
            continue
        if op.op_type is not OpType.READ:
            continue
        if op.start_time < flip_time or op.status is not OpStatus.OK:
            continue
        reads_checked += 1
        observed = value_key(op.value)
        if observed == migrated[key] or observed in later_values[key]:
            continue
        violations.append(
            f"read op {op.op_id} of migrated key {key!r} (invoked at "
            f"{op.start_time * 1e3:.3f} ms, after the flip at "
            f"{flip_time * 1e3:.3f} ms) observed pre-migration state "
            f"{op.value!r} instead of the frozen value or a "
            f"migration-era write"
        )

    return MigrationCheckResult(
        ok=not violations,
        keys_checked=len(keys_seen),
        reads_checked=reads_checked,
        violations=violations,
    )
