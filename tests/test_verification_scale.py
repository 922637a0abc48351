"""Checker cost on large histories, gated on counts (never on wall-clock).

The per-key search must stay near one entered state per operation however
deep a hot key's history is, and the fractured-read check must not visit
every reader x writer pair. ``explored_states`` and ``reads_checked`` repeat
exactly for a fixed input on any machine, so they are what is asserted.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.bench.harness import ExperimentSpec, build_workload, run_experiment
from repro.types import Key, Operation, OpStatus, OpType, Transaction
from repro.verification.history import History
from repro.verification.linearizability import LinearizabilityChecker
from repro.verification.report import check_all
from repro.verification.transactions import _is_initial_or_unknown, check_transactions


# ------------------------------------------------------------ linearizability
def test_hot_zipfian_key_with_fifty_sessions_checks_in_linear_states():
    # The shape perf/README.md records as exhausting a 16 GB box: 50 closed
    # -loop sessions, zipf 0.99 over 4 000 keys, ~11% of 40k ops on one key.
    spec = ExperimentSpec(
        protocol="hermes",
        num_replicas=5,
        clients_per_replica=10,
        ops_per_client=800,
        write_ratio=0.2,
        zipfian_exponent=0.99,
        num_keys=4_000,
        record_history=True,
        seed=3,
    )
    result = run_experiment(spec)
    report = check_all(result.history, initial_values=build_workload(spec).initial_dataset())
    assert report.ok, report.violations[:3]
    details = report.checker("linearizability").details
    assert details["operations"] == 40_000
    assert max(len(ops) for ops in result.history.per_key().values()) > 4_000
    assert details["explored_states"] <= 4 * details["operations"]
    assert details["inconclusive_keys"] == 0


def _overlapping_sessions_history(operations: int, sessions: int, seed: int) -> History:
    """One key, ``sessions`` closed-loop sessions whose operations overlap.

    Every operation takes effect at a distinct instant inside its own
    interval, so the history is linearizable by construction; at any
    instant about ``sessions`` operations are in flight.
    """
    rng = random.Random(seed)
    free_at = [rng.random() for _ in range(sessions)]
    planned = []  # (effect time, invoke, respond, is_write)
    for _ in range(operations):
        session = min(range(sessions), key=free_at.__getitem__)
        invoke = free_at[session] + rng.random() * 0.1
        respond = invoke + 0.5 + rng.random()
        planned.append((rng.uniform(invoke, respond), invoke, respond, rng.random() < 0.3))
        free_at[session] = respond
    value = None
    history = History()
    for sequence, (_effect, invoke, respond, is_write) in enumerate(sorted(planned)):
        if is_write:
            value = sequence
            op = Operation.write("hot", value)
        else:
            op = Operation.read("hot")
        history.invoke(op, invoke)
        history.respond(op, respond, OpStatus.OK, value)
    return history


def test_deep_single_key_history_with_overlapping_sessions_is_linear():
    history = _overlapping_sessions_history(operations=5_000, sessions=32, seed=7)
    (result,) = LinearizabilityChecker().check(history)
    assert result.linearizable and result.operations == 5_000
    assert result.explored_states <= 4 * result.operations

    # The same history with one read moved past a later write's response is
    # never a pass. Ruling it out means exhausting every interleaving of ~32
    # concurrent operations, so within a small budget the verdict may be
    # "inconclusive" rather than "violation" — but not "linearizable".
    records = history.operations()
    stale = next(r for r in records[100:] if r.op.op_type is OpType.READ and r.value is not None)
    overwritten = next(
        r for r in records if r.op.op_type is OpType.WRITE and r.start_time > stale.end_time
    )
    stale.start_time = overwritten.end_time + 10.0
    stale.end_time = stale.start_time + 1.0
    (result,) = LinearizabilityChecker(max_states=50_000).check(history)
    assert not result.linearizable


# --------------------------------------------------------------- transactions
def _pairwise_reference(history: History) -> Tuple[int, List[Tuple[int, int]]]:
    """The fractured-read check as every committed reader x every committed writer.

    Returns ``(reads_checked, [(reader txn id, writer txn id) fractured])``.
    """
    committed = [t for t in history.transactions() if t.committed]
    versions: Dict[Key, List[Tuple[float, int, object]]] = {}
    for record in committed:
        for op in record.txn.write_ops:
            versions.setdefault(op.key, []).append(
                (record.commit_times[op.op_id], record.txn.txn_id, op.payload)
            )
    position_of = {}
    written_by: Dict[int, Dict[Key, int]] = {}
    for key, entries in versions.items():
        for index, (_time, txn_id, value) in enumerate(sorted(entries)):
            position_of[(key, value)] = index
            written_by.setdefault(txn_id, {})[key] = index
    checked, fractured = 0, []
    for reader in committed:
        observed: Dict[Key, Optional[int]] = {}
        for op in reader.txn.read_ops:
            value = reader.values[op.op_id]
            initial = -1 if _is_initial_or_unknown(value) else None
            observed[op.key] = position_of.get((op.key, value), initial)
        for writer in committed:
            positions = written_by.get(writer.txn.txn_id, {})
            if writer is reader or sum(key in positions for key in observed) < 2:
                continue
            flags = [
                observed[key] >= positions[key]
                for key in observed
                if key in positions and observed[key] is not None
            ]
            if len(flags) >= 2:
                checked += 1
                if len(set(flags)) > 1:
                    fractured.append((reader.txn.txn_id, writer.txn.txn_id))
    return checked, fractured


def _two_key_txn_history(txns: int, keys: int, seed: int) -> History:
    """A serial run of committed two-key transactions over skewed key pairs."""
    rng = random.Random(seed)
    store: Dict[Key, bytes] = {}
    history = History()
    for sequence in range(1, txns + 1):
        first = 2 * int(rng.random() ** 3 * (keys // 2))
        pair = (first, first + 1)
        if rng.random() < 0.5:
            ops = [Operation.write(key, b"%d:%d:" % (key, sequence)) for key in pair]
            values: Dict[int, bytes] = {}
            for op in ops:
                store[op.key] = op.payload
        else:
            ops = [Operation.read(key) for key in pair]
            values = {op.op_id: store.get(op.key, b"%d:0:" % op.key) for op in ops}
            if rng.random() < 0.05:  # observed a plain (non-transactional) write
                values[ops[0].op_id] = b"%d:%d:plain" % (pair[0], sequence)
        txn = Transaction(ops=ops)
        history.invoke_txn(txn, float(sequence))
        commit_times = {op.op_id: sequence + 0.25 for op in ops if op.op_type is OpType.WRITE}
        history.respond_txn(txn, sequence + 0.5, OpStatus.OK, values, commit_times)
    return history


def _plant_fractured_reader(history: History) -> Tuple[int, int]:
    """Add a reader that saw the first two-key writer on one key only."""
    writer = next(t for t in history.transactions() if t.txn.write_ops)
    key_a, key_b = writer.txn.keys
    reader = Transaction(ops=[Operation.read(key_a), Operation.read(key_b)])
    history.invoke_txn(reader, 1e6)
    seen = {reader.ops[0].op_id: writer.txn.ops[0].payload, reader.ops[1].op_id: b"%d:0:" % key_b}
    history.respond_txn(reader, 1e6 + 0.5, OpStatus.OK, seen)
    return reader.txn_id, writer.txn.txn_id


def _fractured_message(reader: int, writer: int) -> str:
    return f"fractured read: txn {reader} observed a partial state of txn {writer} "


def test_fractured_read_check_matches_pairwise_formula_and_scales():
    # On a prefix small enough for the pairwise formula, the indexed check
    # examines and reports exactly the same (reader, writer) pairs.
    prefix = _two_key_txn_history(txns=300, keys=2_000, seed=5)
    planted = _plant_fractured_reader(prefix)
    checked, fractured = _pairwise_reference(prefix)
    assert checked > 100 and planted in fractured
    result = check_transactions(prefix)
    assert (result.committed, result.reads_checked) == (301, checked)
    assert len(result.violations) == len(fractured)
    for pair, violation in zip(fractured, result.violations):
        assert violation.startswith(_fractured_message(*pair))

    history = _two_key_txn_history(txns=5_000, keys=2_000, seed=5)
    clean = check_transactions(history)
    assert clean.ok and clean.committed == 5_000 and clean.reads_checked > 10 * checked
    planted = _plant_fractured_reader(history)
    result = check_transactions(history)
    assert result.reads_checked > clean.reads_checked
    assert [v for v in result.violations if v.startswith(_fractured_message(*planted))]
