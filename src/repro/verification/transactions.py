"""Transaction atomicity checking.

The per-key linearizability checker (:mod:`repro.verification.linearizability`)
already validates every operation of a recorded history individually —
including the member operations of transactions, which are recorded as
ordinary operations sharing the transaction's invocation/response window.
This module adds the two properties that are *about the grouping*:

1. **Abort invisibility** — a value written by a transaction that reported
   ``ABORTED`` (or ``TIMEOUT``) must never be observed by any completed
   read, transactional or plain. The workload's unique written values make
   this directly checkable.
2. **No fractured reads** (atomic visibility) — for a committed
   transaction R that read keys ``k1`` and ``k2``, and a committed
   transaction W that wrote both: R must observe a state that includes
   W's effect on *both* keys or on *neither*. "Includes" is decided by the
   per-key version order of committed transactional writes, built from the
   commit instants the shard lock masters report (two transactional writes
   to one key are strictly ordered by that key's lock, so their commit
   instants order versions exactly). A read observing a *plain* write's
   value cannot be positioned precisely against in-flight transactions
   (plain writes coordinated at other replicas are only per-key
   linearizable, not lock-ordered), so such pairs are skipped
   conservatively; reads observing the initial value order before every
   transactional version.

Under the transaction layer's strict two-phase locking (no-wait locks at
per-shard lock masters), committed transactions are serializable with
respect to each other, so both checks must pass on every run — they are
regression tests for the lock/2PC machinery, exercised by
``tests/test_txn.py`` and the ``--figure txn`` smoke benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.types import Key, Operation, OpStatus, OpType
from repro.verification.history import History, value_key


@dataclass
class TxnCheckResult:
    """Outcome of checking a history's transactions.

    Attributes:
        ok: Whether every check passed.
        committed: Number of committed transactions considered.
        aborted: Number of aborted/timed-out transactions considered.
        reads_checked: Number of (reader, writer, key-pair) combinations the
            fractured-read check examined.
        violations: Human-readable descriptions of every violation found.
    """

    ok: bool
    committed: int
    aborted: int
    reads_checked: int
    violations: List[str] = field(default_factory=list)


def check_transactions(
    history: History, operations: Optional[Sequence[Operation]] = None
) -> TxnCheckResult:
    """Check abort invisibility and atomic visibility of a history.

    Args:
        history: A history recorded with transactions (see
            :meth:`repro.verification.history.History.invoke_txn`).
        operations: ``history.operations()``, when the caller already holds
            it (:func:`repro.verification.report.check_all` builds it once
            for every checker).

    Returns:
        A :class:`TxnCheckResult`; ``result.ok`` is True when committed
        transactions are atomically visible to each other and aborted
        transactions left no observable trace.
    """
    txns = history.transactions()
    committed = [t for t in txns if t.completed and t.committed]
    # Only transactions that reported ABORTED are guaranteed unapplied;
    # TIMEOUT marks an *indeterminate* outcome (e.g. a commit decided but
    # unacknowledged across a crash) — like an operation that never
    # returned, it is constrained in neither direction.
    aborted = [t for t in txns if t.status is OpStatus.ABORTED]
    violations: List[str] = []

    # Written-value attribution: committed transactional writes are version
    # points; aborted transactional writes must be invisible.
    aborted_values = {
        value_key(op.payload)
        for record in aborted
        for op in record.txn.write_ops
    }
    # key -> [(commit_time, txn_id, written value)] in commit order.
    versions_by_key: Dict[Key, List[Tuple[float, int, object]]] = {}
    for record in committed:
        for op in record.txn.write_ops:
            commit_time = record.commit_times.get(op.op_id, record.response_time or 0.0)
            versions_by_key.setdefault(op.key, []).append(
                (commit_time, record.txn.txn_id, value_key(op.payload))
            )
    # value -> (key, version index); positions define "includes version i".
    position_of: Dict[Tuple[Key, object], int] = {}
    txn_write_positions: Dict[int, Dict[Key, int]] = {}
    for key, versions in versions_by_key.items():
        versions.sort()
        for index, (_time, txn_id, written) in enumerate(versions):
            position_of[(key, written)] = index
            txn_write_positions.setdefault(txn_id, {})[key] = index
    # key -> committed writers of it, as indices into ``committed``.
    writers_of: Dict[Key, List[int]] = {}
    for ordinal, record in enumerate(committed):
        for key in txn_write_positions.get(record.txn.txn_id, ()):
            writers_of.setdefault(key, []).append(ordinal)

    # ---- abort invisibility: no completed read observes an aborted write.
    if aborted_values:
        if operations is None:
            operations = history.operations()
        for record in operations:
            if record.op_type is not OpType.READ or record.status is not OpStatus.OK:
                continue
            if value_key(record.value) in aborted_values:
                violations.append(
                    f"read op {record.op_id} of key {record.key!r} observed "
                    f"a value written by an aborted transaction"
                )

    # ---- fractured reads: committed readers see each committed writer's
    # effects on all shared keys or on none.
    reads_checked = 0
    for reader in committed:
        #: Key -> observed version position: an index into the key's
        #: committed-transactional-version order, ``-1`` for the initial
        #: value (before every version), or ``None`` for a plain write
        #: (position indeterminate, skipped conservatively).
        observed: Dict[Key, Optional[int]] = {}
        for op in reader.txn.read_ops:
            if op.op_id not in reader.values:
                continue
            seen = value_key(reader.values[op.op_id])
            position = position_of.get((op.key, seen))
            if position is None and _is_initial_or_unknown(seen):
                position = -1
            observed[op.key] = position
        if len(observed) < 2:
            continue
        # Only a writer of at least two of the keys read can be seen
        # partially; visit those, in committed order.
        keys_shared: Dict[int, int] = {}
        for key in observed:
            for ordinal in writers_of.get(key, ()):
                keys_shared[ordinal] = keys_shared.get(ordinal, 0) + 1
        for ordinal in sorted(o for o, count in keys_shared.items() if count >= 2):
            writer = committed[ordinal]
            if writer.txn.txn_id == reader.txn.txn_id:
                continue
            writer_positions = txn_write_positions[writer.txn.txn_id]
            includes: List[Tuple[Key, bool]] = []
            for key in observed:
                pos = observed[key]
                if pos is None or key not in writer_positions:
                    continue  # plain-write observation: indeterminate
                includes.append((key, pos >= writer_positions[key]))
            if len(includes) < 2:
                continue
            reads_checked += 1
            flags = {flag for _k, flag in includes}
            if len(flags) > 1:
                detail = ", ".join(
                    f"{key!r}:{'seen' if flag else 'missing'}" for key, flag in includes
                )
                violations.append(
                    f"fractured read: txn {reader.txn.txn_id} observed a partial "
                    f"state of txn {writer.txn.txn_id} ({detail})"
                )

    return TxnCheckResult(
        ok=not violations,
        committed=len(committed),
        aborted=len(aborted),
        reads_checked=reads_checked,
        violations=violations,
    )


def _is_initial_or_unknown(value_key: object) -> bool:
    """Whether an observed value is an initial dataset value.

    The benchmark value factory encodes ``key:sequence:`` in every payload,
    with sequence 0 reserved for the preloaded dataset — so initial values
    are recognisable; anything else unattributable is a plain write.
    """
    if isinstance(value_key, (bytes, bytearray)):
        parts = bytes(value_key).split(b":", 2)
        return len(parts) >= 2 and parts[1] == b"0"
    return False
