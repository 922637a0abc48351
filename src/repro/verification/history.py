"""Operation history recording.

A :class:`History` collects the invocation and response of every client
operation in an execution. Histories are the input to the linearizability
checker and to several integration tests (e.g. "a committed write is visible
to subsequent reads").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.errors import HistoryError
from repro.types import Key, Operation, OpStatus, OpType, Transaction, Value


def value_key(value: Value) -> object:
    """A hashable stand-in for a written/observed value.

    The value itself when hashable (so values that compare equal share a
    key and values that merely share a hash do not), its ``repr`` otherwise.
    """
    try:
        hash(value)
        return value
    except TypeError:  # pragma: no cover - exotic value types
        return repr(value)


@dataclass
class CompletedOperation:
    """One operation with both endpoints recorded.

    Attributes:
        op: The client operation.
        invoke_time: Simulated time of invocation.
        response_time: Simulated time of completion (``None`` while pending).
        status: Terminal status (``None`` while pending).
        result: Value returned to the client (reads and RMWs).
    """

    op: Operation
    invoke_time: float
    response_time: Optional[float] = None
    status: Optional[OpStatus] = None
    result: Value = None

    @property
    def completed(self) -> bool:
        """Whether the response has been recorded."""
        return self.response_time is not None

    @property
    def key(self) -> Key:
        """The operation's target key."""
        return self.op.key


@dataclass
class TransactionRecord:
    """One multi-key transaction with both endpoints recorded.

    The transaction's member operations are *also* recorded as individual
    :class:`CompletedOperation` entries (sharing the transaction's
    invoke/response window), so the per-key linearizability checker sees
    them like any other operation; this record adds the grouping the
    transaction-atomicity checker needs.

    Attributes:
        txn: The client transaction.
        invoke_time: Simulated time of invocation.
        response_time: Simulated completion time (``None`` while pending).
        status: Terminal status (``OK`` = committed, ``ABORTED``,
            ``TIMEOUT``; ``None`` while pending).
        values: Read results by member op id (committed transactions).
        commit_times: Simulated commit instant of each applied write by
            member op id, as reported by the shard lock masters — the
            per-key version order the atomicity checker relies on.
    """

    txn: Transaction
    invoke_time: float
    response_time: Optional[float] = None
    status: Optional[OpStatus] = None
    values: Dict[int, Value] = field(default_factory=dict)
    commit_times: Dict[int, float] = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        """Whether the response has been recorded."""
        return self.response_time is not None

    @property
    def committed(self) -> bool:
        """Whether the transaction completed with a commit."""
        return self.status is OpStatus.OK


def group_by_key(
    operations: Iterable[CompletedOperation],
) -> Dict[Key, List[CompletedOperation]]:
    """Group records by key, keeping their order within each key."""
    grouped: Dict[Key, List[CompletedOperation]] = {}
    for record in operations:
        grouped.setdefault(record.key, []).append(record)
    return grouped


class History:
    """An invocation/response history of client operations."""

    def __init__(self) -> None:
        self._records: Dict[int, CompletedOperation] = {}
        self._order: List[int] = []
        self._txns: List[TransactionRecord] = []
        self._txn_index: Dict[int, TransactionRecord] = {}

    # -------------------------------------------------------------- recording
    def invoke(self, op: Operation, time: float) -> None:
        """Record the invocation of an operation.

        Raises:
            HistoryError: if the operation was already invoked.
        """
        if op.op_id in self._records:
            raise HistoryError(f"operation {op.op_id} invoked twice")
        self._records[op.op_id] = CompletedOperation(op=op, invoke_time=time)
        self._order.append(op.op_id)

    def respond(self, op: Operation, time: float, status: OpStatus, result: Value) -> None:
        """Record the response of a previously invoked operation.

        Raises:
            HistoryError: if the operation was never invoked or already
                responded.
        """
        record = self._records.get(op.op_id)
        if record is None:
            raise HistoryError(f"response for unknown operation {op.op_id}")
        if record.completed:
            raise HistoryError(f"operation {op.op_id} responded twice")
        record.response_time = time
        record.status = status
        record.result = result

    def invoke_txn(self, txn: Transaction, time: float) -> None:
        """Record the invocation of a multi-key transaction.

        The member operations are recorded as individually invoked
        operations at the same instant (they share the transaction's
        real-time window).

        Raises:
            HistoryError: if the transaction was already invoked.
        """
        if txn.txn_id in self._txn_index:
            raise HistoryError(f"transaction {txn.txn_id} invoked twice")
        record = TransactionRecord(txn=txn, invoke_time=time)
        self._txn_index[txn.txn_id] = record
        self._txns.append(record)
        for op in txn.ops:
            self.invoke(op, time)

    def respond_txn(
        self,
        txn: Transaction,
        time: float,
        status: OpStatus,
        values: Optional[Dict[int, Value]] = None,
        commit_times: Optional[Dict[int, float]] = None,
    ) -> None:
        """Record the completion of a previously invoked transaction.

        Member operations are responded with the transaction's status:
        committed reads carry their observed values, committed writes their
        written values; aborted/timed-out members carry no result (the
        linearizability checker excludes them, matching the invariant that
        an aborted transaction has no effect).

        Raises:
            HistoryError: if the transaction was never invoked or already
                responded.
        """
        record = self._txn_index.get(txn.txn_id)
        if record is None:
            raise HistoryError(f"response for unknown transaction {txn.txn_id}")
        if record.completed:
            raise HistoryError(f"transaction {txn.txn_id} responded twice")
        record.response_time = time
        record.status = status
        record.values = dict(values) if values else {}
        record.commit_times = dict(commit_times) if commit_times else {}
        if status is not OpStatus.OK and status is not OpStatus.ABORTED:
            # TIMEOUT (or UNAVAILABLE): the outcome is indeterminate — e.g.
            # a commit decided but unacknowledged across a crash, so writes
            # may or may not have been applied. Leaving the member
            # operations *pending* models exactly that for the
            # linearizability checker (pending updates may be linearized or
            # omitted).
            return
        committed = status is OpStatus.OK
        for op in txn.ops:
            if committed:
                result = record.values.get(op.op_id) if op.op_type is OpType.READ else op.value
            else:
                result = None
            self.respond(op, time, status, result)

    def absorb(self, other: "History") -> None:
        """Merge another history's records into this one (in their order).

        Used to combine per-shard histories from process-parallel shard
        execution, where each worker process assigns operation ids from its
        own counter: colliding ids across shards are expected, so absorbed
        records are stored under synthetic negative keys (real operation
        ids are always positive). Key-disjoint shards keep the merged
        history valid for the per-key linearizability checker.
        """
        base = len(self._order)
        for offset, record in enumerate(other.operations()):
            synthetic = -(base + offset + 1)
            self._records[synthetic] = record
            self._order.append(synthetic)
        self._txns.extend(other._txns)

    # --------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self._records)

    def operations(self) -> List[CompletedOperation]:
        """All records in invocation order."""
        return [self._records[op_id] for op_id in self._order]

    def completed(self) -> List[CompletedOperation]:
        """Only the records whose response was recorded."""
        return [record for record in self.operations() if record.completed]

    def pending(self) -> List[CompletedOperation]:
        """Records invoked but never completed (e.g. lost to a crash)."""
        return [record for record in self.operations() if not record.completed]

    def transactions(self) -> List[TransactionRecord]:
        """All transaction records in invocation order."""
        return list(self._txns)

    def per_key(self) -> Dict[Key, List[CompletedOperation]]:
        """Group records by key (Hermes operations are single-key)."""
        return group_by_key(self.operations())
