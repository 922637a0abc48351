"""Common value types shared across the library.

The library deals with a small set of domain concepts that appear in nearly
every subsystem: node identifiers, keys, values, operation kinds, and client
operations (one object each, holding the request and, once completed, its
outcome). Keeping them in a single module avoids circular imports between
the protocol packages and the simulation substrate.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

#: Identifier of a replica node. Small non-negative integers.
NodeId = int

#: Key type. Keys are opaque; the library uses integers for speed but any
#: hashable value works with the stores and protocols.
Key = Any

#: Value type. Values are opaque payloads; benchmarks use ``bytes`` of a
#: configurable size, tests frequently use ints or strings.
Value = Any


class OpType(enum.Enum):
    """Kind of client operation submitted to a replicated datastore."""

    READ = "read"
    WRITE = "write"
    RMW = "rmw"

    @property
    def is_update(self) -> bool:
        """Whether the operation mutates the datastore (write or RMW)."""
        return self is not OpType.READ


class OpStatus(enum.Enum):
    """Terminal status of a client operation."""

    OK = "ok"
    #: An RMW lost to a concurrent conflicting update (paper §3.6).
    ABORTED = "aborted"
    #: The request could not complete before the run ended (e.g. stalled on
    #: an invalidated key during a membership transition).
    TIMEOUT = "timeout"
    #: The serving node was not operational (no valid lease / crashed).
    UNAVAILABLE = "unavailable"


_op_id_counter = itertools.count(1)


def next_op_id() -> int:
    """Return a process-wide unique operation identifier.

    Operation ids are only used for bookkeeping (history recording, request
    tracking); uniqueness within a single Python process is sufficient.
    """
    return next(_op_id_counter)


#: Field metadata of an :class:`Operation`'s outcome fields: the client
#: session fills them in, they are not part of the request, and the
#: sanitizer's mutation-after-send fingerprint skips them.
OUTCOME = {"outcome": True}


@dataclass(slots=True)
class Operation:
    """A client operation and, once submitted by a client session, its record.

    One object per operation: the request fields are set at creation; a
    client session stamps ``start_time`` at submission and fills in
    ``status``, ``value`` and ``end_time`` at completion, and a recorded
    history indexes this same object. Ten fields keep an instance in
    pymalloc's 112-byte size class (an eleventh would make it 128).

    Attributes:
        op_type: Kind of operation (read / write / RMW).
        key: Target key.
        payload: Value to write; ``None`` for reads. For RMWs this is the
            value to install if the RMW commits (the "modify" result).
        op_id: Unique identifier assigned at creation.
        client_id: Identifier of the issuing client session.
        compare: Optional expected value for compare-and-swap style RMWs.
        status: Terminal status (``None`` until the operation completes).
        value: Returned value (for reads and successful RMWs the value
            observed; for writes the written value).
        start_time: Simulated time at which the operation was invoked.
        end_time: Simulated time at which the operation completed.
    """

    op_type: OpType
    key: Key
    payload: Value = None
    # next_op_id's counter, drawn without a Python frame per operation.
    op_id: int = field(default_factory=_op_id_counter.__next__)
    client_id: int = 0
    compare: Optional[Value] = None
    status: Optional[OpStatus] = field(default=None, metadata=OUTCOME)
    value: Value = field(default=None, metadata=OUTCOME)
    start_time: float = field(default=0.0, metadata=OUTCOME)
    end_time: float = field(default=0.0, metadata=OUTCOME)

    @classmethod
    def read(cls, key: Key, client_id: int = 0) -> "Operation":
        """Construct a read operation."""
        return cls(OpType.READ, key, client_id=client_id)

    @classmethod
    def write(cls, key: Key, payload: Value, client_id: int = 0) -> "Operation":
        """Construct a write operation."""
        return cls(OpType.WRITE, key, payload, client_id=client_id)

    @classmethod
    def rmw(
        cls,
        key: Key,
        payload: Value,
        compare: Optional[Value] = None,
        client_id: int = 0,
    ) -> "Operation":
        """Construct a read-modify-write (e.g. compare-and-swap)."""
        return cls(OpType.RMW, key, payload, compare=compare, client_id=client_id)

    @property
    def op(self) -> "Operation":
        """The operation itself: the record of an operation is the operation."""
        return self

    @property
    def latency(self) -> float:
        """End-to-end latency of the operation in simulated seconds."""
        return self.end_time - self.start_time

    @property
    def ok(self) -> bool:
        """True if the operation completed successfully."""
        return self.status is OpStatus.OK

    @property
    def completed(self) -> bool:
        """Whether the outcome is decided: not pending and not ``TIMEOUT``."""
        return self.status is not None and self.status is not OpStatus.TIMEOUT


@dataclass
class Transaction:
    """A multi-key transaction: several operations that commit or abort atomically.

    Transactions are executed by the cluster layer's two-phase-commit
    coordinator (:mod:`repro.cluster.txn`): the keys of ``ops`` may span
    key-range shards, in which case each involved shard votes in a PREPARE
    round before the writes are applied. Single-shard transactions take a
    one-round fast path. Within a transaction, reads observe the state
    before the transaction's own writes (no read-your-own-writes), and all
    writes become visible atomically with respect to other transactions.

    Attributes:
        ops: The member operations (reads and writes; RMWs are not
            supported inside transactions).
        txn_id: Unique identifier, drawn from the operation-id counter.
        client_id: Identifier of the issuing client session.
    """

    ops: "list[Operation]"
    txn_id: int = field(default_factory=next_op_id)
    client_id: int = 0

    @property
    def keys(self) -> "list[Key]":
        """The keys touched by this transaction, in operation order."""
        return [op.key for op in self.ops]

    @property
    def read_ops(self) -> "list[Operation]":
        """The member reads."""
        return [op for op in self.ops if op.op_type is OpType.READ]

    @property
    def write_ops(self) -> "list[Operation]":
        """The member updates."""
        return [op for op in self.ops if op.op_type is not OpType.READ]


class TxnMessage:
    """Marker base class for transaction-layer messages.

    The concrete message types, the 2PC state machines and their entries in
    each replica's dispatch table are defined in :mod:`repro.cluster.txn`.
    """

    __slots__ = ()


def OperationResult(
    op: Operation,
    status: Optional[OpStatus] = None,
    value: Value = None,
    start_time: float = 0.0,
    end_time: float = 0.0,
) -> Operation:
    """A new record of ``op``'s request with the given outcome.

    It copies ``op``'s request fields and leaves ``op`` itself untouched, so
    one operation may stand behind any number of such records.
    """
    return Operation(
        op.op_type, op.key, op.payload, op.op_id, op.client_id, op.compare,
        status, value, start_time, end_time,
    )


def member_value(op: Operation, status: OpStatus, values: Mapping[int, Value]) -> Value:
    """A transaction member's result: a committed read returns its read value
    (``values`` by op id), a committed write its payload, anything else None."""
    if status is not OpStatus.OK:
        return None
    return values.get(op.op_id) if op.op_type is OpType.READ else op.payload
