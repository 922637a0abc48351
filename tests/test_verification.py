"""History recording, the linearizability checker and cluster invariants."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import HistoryError, VerificationError
from repro.types import Operation, OpStatus, Transaction
from repro.verification.history import History
from repro.verification.invariants import (
    check_no_pending_updates,
    check_replica_convergence,
    check_values_from_history,
)
from repro.verification.linearizability import LinearizabilityChecker, check_history
from repro.membership.service import MigrationRecord
from repro.membership.view import ShardMigration
from repro.verification.report import check_all
from tests.conftest import make_cluster, submit_and_run


# ------------------------------------------------------------------ history
def test_history_records_invoke_and_respond():
    history = History()
    op = Operation.write("k", 1)
    history.invoke(op, 0.0)
    history.respond(op, 1.0, OpStatus.OK, 1)
    record = history.operations()[0]
    assert record.completed
    assert record.start_time == 0.0
    assert record.end_time == 1.0


def test_history_double_invoke_rejected():
    history = History()
    op = Operation.read("k")
    history.invoke(op, 0.0)
    with pytest.raises(HistoryError):
        history.invoke(op, 0.1)
    # The operation is its own record: a rejected invoke leaves it as it was.
    assert history.operations()[0].start_time == 0.0


def test_history_double_response_rejected():
    history = History()
    op = Operation.write("k", 1)
    history.invoke(op, 0.0)
    history.respond(op, 1.0, OpStatus.OK, 1)
    with pytest.raises(HistoryError):
        history.respond(op, 2.0, OpStatus.OK, 1)
    # A TIMEOUT response is undecided, not missing: it cannot be given twice.
    txn = Transaction(ops=[Operation.write("k", 2)])
    history.invoke_txn(txn, 0.0)
    history.respond_txn(txn, 1.0, OpStatus.TIMEOUT)
    with pytest.raises(HistoryError):
        history.respond_txn(txn, 2.0, OpStatus.OK)
    with pytest.raises(HistoryError):
        history.respond(txn.ops[0], 2.0, OpStatus.OK, 2)


def test_history_respond_without_invoke_rejected():
    history = History()
    with pytest.raises(HistoryError):
        history.respond(Operation.read("k"), 1.0, OpStatus.OK, None)


def test_history_pending_and_completed_partition():
    history = History()
    a, b = Operation.write("k", 1), Operation.write("k", 2)
    history.invoke(a, 0.0)
    history.invoke(b, 0.1)
    history.respond(a, 0.2, OpStatus.OK, 1)
    assert len(history.completed()) == 1
    assert len(history.pending()) == 1


def test_history_per_key_grouping():
    history = History()
    for key in ("a", "b", "a"):
        op = Operation.read(key)
        history.invoke(op, 0.0)
        history.respond(op, 0.1, OpStatus.OK, None)
    grouped = history.per_key()
    assert len(grouped["a"]) == 2
    assert len(grouped["b"]) == 1


# ------------------------------------------------- linearizability (manual)
def record(history, op, invoke, respond, status=OpStatus.OK, result=None):
    history.invoke(op, invoke)
    if respond is not None:
        history.respond(op, respond, status, result)


def test_sequential_history_is_linearizable():
    history = History()
    w = Operation.write("k", 1)
    r = Operation.read("k")
    record(history, w, 0.0, 1.0, result=1)
    record(history, r, 2.0, 3.0, result=1)
    assert check_history(history)


def test_read_of_stale_value_after_write_is_not_linearizable():
    history = History()
    w = Operation.write("k", 1)
    r = Operation.read("k")
    record(history, w, 0.0, 1.0, result=1)
    record(history, r, 2.0, 3.0, result=None)  # reads the initial value too late
    assert not check_history(history)


def test_concurrent_write_read_either_value_ok():
    history = History()
    w = Operation.write("k", "new")
    r_old = Operation.read("k")
    record(history, w, 0.0, 2.0, result="new")
    record(history, r_old, 0.5, 1.5, result="old")
    assert check_history(history, initial_values={"k": "old"})


def test_read_your_writes_violation_detected():
    history = History()
    w1 = Operation.write("k", 1)
    w2 = Operation.write("k", 2)
    r = Operation.read("k")
    record(history, w1, 0.0, 1.0, result=1)
    record(history, w2, 2.0, 3.0, result=2)
    record(history, r, 4.0, 5.0, result=1)  # observes the overwritten value
    assert not check_history(history)


def test_pending_write_may_or_may_not_take_effect():
    history = History()
    w = Operation.write("k", 1)
    r = Operation.read("k")
    record(history, w, 0.0, None)  # never completed
    record(history, r, 1.0, 2.0, result=None)
    assert check_history(history)
    history2 = History()
    record(history2, Operation.write("k", 1), 0.0, None)
    record(history2, Operation.read("k"), 1.0, 2.0, result=1)
    assert check_history(history2)


@pytest.mark.parametrize("via_txn", [True, False], ids=["txn", "op"])
def test_timed_out_write_may_or_may_not_take_effect(via_txn):
    # TIMEOUT is undecided like a pending response: the write may have been
    # applied, so later reads may observe the old value or the new one,
    # but once one read saw the new value, no later read may see the old.
    def timed_out_then_reads(*observed):
        history = History()
        write = Operation.write("k", "new")
        if via_txn:
            txn = Transaction(ops=[write, Operation.read("k")])
            history.invoke_txn(txn, 0.0)
            history.respond_txn(txn, 1.0, OpStatus.TIMEOUT)
        else:
            record(history, write, 0.0, 1.0, status=OpStatus.TIMEOUT)
        assert not any(r.completed for r in history.operations())
        for index, value in enumerate(observed):
            record(history, Operation.read("k"), 2.0 + 2 * index, 3.0 + 2 * index, result=value)
        return check_history(history, initial_values={"k": "old"})

    assert timed_out_then_reads("old", "old")
    assert timed_out_then_reads("new", "new")
    assert timed_out_then_reads("old", "new")
    assert not timed_out_then_reads("new", "old")


def test_aborted_rmw_must_have_no_effect():
    history = History()
    rmw = Operation.rmw("k", "x", compare="init")
    r = Operation.read("k")
    record(history, rmw, 0.0, 1.0, status=OpStatus.ABORTED, result=None)
    record(history, r, 2.0, 3.0, result="init")
    assert check_history(history, initial_values={"k": "init"})
    history2 = History()
    record(history2, Operation.rmw("k", "x", compare="init"), 0.0, 1.0, status=OpStatus.ABORTED)
    record(history2, Operation.read("k"), 2.0, 3.0, result="x")
    assert not check_history(history2, initial_values={"k": "init"})


def test_cas_success_requires_matching_precondition():
    history = History()
    cas = Operation.rmw("k", "held", compare="free")
    record(history, cas, 0.0, 1.0, result="held")
    assert check_history(history, initial_values={"k": "free"})
    history2 = History()
    cas2 = Operation.rmw("k", "held", compare="free")
    record(history2, cas2, 0.0, 1.0, result="held")
    assert not check_history(history2, initial_values={"k": "busy"})


def test_two_keys_checked_independently():
    history = History()
    record(history, Operation.write("a", 1), 0.0, 1.0, result=1)
    record(history, Operation.write("b", 2), 0.0, 1.0, result=2)
    record(history, Operation.read("a"), 2.0, 3.0, result=1)
    record(history, Operation.read("b"), 2.0, 3.0, result=2)
    results = LinearizabilityChecker().check(history)
    assert len(results) == 2
    assert all(r.linearizable for r in results)


def test_checker_reports_operation_counts():
    history = History()
    record(history, Operation.write("a", 1), 0.0, 1.0, result=1)
    record(history, Operation.read("a"), 2.0, 3.0, result=1)
    result = LinearizabilityChecker().check(history)[0]
    assert result.operations == 2
    assert result.explored_states >= 1


def test_deep_single_key_history_does_not_overflow_recursion():
    # Zipfian hot keys produce thousands of operations on one key; the
    # checker's search must be iterative — the old recursive formulation
    # hit the interpreter recursion limit around a depth of 1000.
    history = History()
    time = 0.0
    last = None
    for i in range(1500):
        if i % 3 == 0:
            op = Operation.write("hot", i)
            record(history, op, time, time + 0.5, result=i)
            last = i
        else:
            record(history, Operation.read("hot"), time, time + 0.5, result=last)
        time += 1.0
    result = LinearizabilityChecker().check(history)[0]
    assert result.linearizable
    assert result.operations == 1500


@given(st.lists(st.integers(0, 5), min_size=1, max_size=8))
def test_any_serial_history_of_writes_then_reads_is_linearizable(values):
    history = History()
    time = 0.0
    last = None
    for value in values:
        w = Operation.write("k", value)
        record(history, w, time, time + 0.5, result=value)
        time += 1.0
        last = value
    r = Operation.read("k")
    record(history, r, time, time + 0.5, result=last)
    assert check_history(history)


def test_equal_hash_values_are_distinct_register_states():
    # hash(-1) == hash(-2) in CPython: a memo keyed on hash(value) took the
    # state "both writes placed, register -1" for the already failed "...
    # register -2" and reported this history as a violation.
    assert hash(-1) == hash(-2)
    history = History()
    record(history, Operation.write("k", -1), 0.0, 10.0, result=-1)
    record(history, Operation.write("k", -2), 0.0, 10.0, result=-2)
    record(history, Operation.read("k"), 11.0, 12.0, result=-1)
    assert check_history(history)
    # The same pair followed by an operation that is not absorbed, so both
    # orders reach one (lo, mask) with registers -2 (dead end) and -1.
    history = History()
    record(history, Operation.write("k", -1), 0.0, 10.0, result=-1)
    record(history, Operation.write("k", -2), 0.0, 10.0, result=-2)
    record(history, Operation.rmw("k", 7, compare=-1), 11.0, 12.0, result=7)
    assert check_history(history)


def _contended_history(writers=6):
    history = History()
    for value in range(writers):
        record(history, Operation.write("k", value), 0.0, 10.0, result=value)
    record(history, Operation.read("k"), 11.0, 12.0, result=writers - 1)
    return history


def test_exhausted_budget_is_inconclusive_not_a_violation():
    history = _contended_history()
    assert LinearizabilityChecker().check(history)[0].linearizable
    result = LinearizabilityChecker(max_states=3).check(history)[0]
    assert result.inconclusive and not result.linearizable
    assert result.explored_states == 3

    report = check_all(history, max_states=3)
    assert not report.ok  # an exhausted search is not a pass
    lin = report.checker("linearizability")
    assert lin.details["inconclusive_keys"] == 1
    assert "inconclusive: search budget of 3 states exhausted" in lin.violations[0]
    assert "not linearizable" not in lin.violations[0]
    assert check_all(history).checker("linearizability").details["inconclusive_keys"] == 0


# ---- absorption must not hide violations
def test_absorbed_reads_do_not_hide_a_stale_read_after_an_overwrite():
    history = History()
    record(history, Operation.read("k"), 0.0, 1.0, result="init")  # absorbed
    record(history, Operation.write("k", "a"), 2.0, 3.0, result="a")
    record(history, Operation.read("k"), 2.5, 3.5, result="a")  # absorbed after W(a)
    record(history, Operation.write("k", "b"), 4.0, 5.0, result="b")
    record(history, Operation.read("k"), 6.0, 7.0, result="a")  # stale
    assert not check_history(history, initial_values={"k": "init"})


def test_read_of_a_value_written_only_after_the_read_responded_is_rejected():
    history = History()
    record(history, Operation.read("k"), 0.0, 1.0, result="late")
    record(history, Operation.write("k", "late"), 2.0, 3.0, result="late")
    record(history, Operation.read("k"), 4.0, 5.0, result="late")
    assert not check_history(history)


def test_write_of_the_current_value_is_not_absorbed():
    # W(1) is legal and leaves the register unchanged *now*, but its only
    # valid place is after W(2); placing it first would lose this order.
    history = History()
    record(history, Operation.write("k", 1), 0.0, 10.0, result=1)
    record(history, Operation.write("k", 2), 0.0, 10.0, result=2)
    record(history, Operation.read("k"), 1.0, 2.0, result=2)
    record(history, Operation.read("k"), 11.0, 12.0, result=1)
    assert check_history(history, initial_values={"k": 1})


def test_cas_that_may_have_succeeded_is_not_absorbed():
    # The CAS returned the value it installs: at register "x" it reads as a
    # failed compare, but its only valid place is after W(c), succeeding.
    history = History()
    record(history, Operation.rmw("k", "x", compare="c"), 0.0, 10.0, result="x")
    record(history, Operation.write("k", "c"), 0.0, 10.0, result="c")
    record(history, Operation.read("k"), 11.0, 12.0, result="x")
    assert check_history(history, initial_values={"k": "x"})


def test_records_out_of_invocation_order_are_checked_in_time_order():
    # History.absorb appends a whole shard's records after another's, so a
    # key's records need not arrive sorted by invocation.
    late, early = History(), History()
    record(late, Operation.write("k", 2), 4.0, 5.0, result=2)
    record(late, Operation.read("k"), 6.0, 7.0, result=2)
    record(early, Operation.write("k", 1), 0.0, 1.0, result=1)
    record(early, Operation.read("k"), 2.0, 3.0, result=1)
    merged = History()
    merged.absorb(late)
    merged.absorb(early)
    assert [r.start_time for r in merged.operations()] == [4.0, 6.0, 0.0, 2.0]
    assert check_history(merged)

    stale = History()
    record(stale, Operation.read("k"), 6.0, 7.0, result=1)  # after W(2) completed
    merged.absorb(stale)
    assert not check_history(merged)


# ---- differential test against a brute-force reference
_VALUES = (-1, -2, 0, 1)  # hash(-1) == hash(-2)


def _reference_apply(rec, value):
    """Register semantics restated independently of the checker: new value or None."""
    op, done = rec.op, rec.completed and rec.status is OpStatus.OK
    if op.op_type.value == "read":
        return (value,) if rec.value == value else None
    if op.op_type.value == "write":
        return (op.payload,)
    if op.compare is None or value == op.compare:
        return (op.payload,) if not done or rec.value == op.payload else None
    return (value,) if not done or rec.value == value else None


def _reference_linearizable(records, initial):
    """All subsets of pending updates x all permutations (records: <= 7)."""
    records = [
        r
        for r in records
        if r.status not in (OpStatus.ABORTED, OpStatus.UNAVAILABLE)
        and (r.completed or r.op.op_type.is_update)
    ]
    pending = [r for r in records if not r.completed]
    completed = [r for r in records if r.completed]
    for size in range(len(pending) + 1):
        for kept in itertools.combinations(pending, size):
            for order in itertools.permutations(completed + list(kept)):
                value = initial
                for position, rec in enumerate(order):
                    # Real-time order: nothing placed later responded before
                    # this record was invoked.
                    if any(
                        later.completed and later.end_time < rec.start_time
                        for later in order[position + 1 :]
                    ):
                        break
                    outcome = _reference_apply(rec, value)
                    if outcome is None:
                        break
                    (value,) = outcome
                else:
                    return True
    return False


@st.composite
def _small_histories(draw):
    """A serial execution stretched into overlapping intervals, then perturbed.

    Operation ``i`` takes effect at time ``i``; its interval is widened by up
    to 3 on each side, so the unperturbed history is linearizable. Each
    perturbation (a changed result, a write left pending, an RMW reported
    ABORTED, an operation reported TIMEOUT) may or may not break that — the reference decides.
    """
    value = initial = draw(st.sampled_from(_VALUES + (None,)))
    rows = []
    for point in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["read", "read", "write", "cas", "rmw"]))
        new = draw(st.sampled_from(_VALUES))
        compare = draw(st.sampled_from(_VALUES)) if kind == "cas" else None
        if kind == "read":
            op, result = Operation.read("k"), value
        elif kind == "write":
            op, result = Operation.write("k", new), new
            value = new
        elif kind == "cas" and value != compare:
            op, result = Operation.rmw("k", new, compare=compare), value
        else:
            op, result = Operation.rmw("k", new, compare=compare), new
            value = new
        invoke = point - draw(st.integers(0, 3))
        respond = point + draw(st.integers(0, 3))
        status = OpStatus.OK
        perturb = draw(
            st.sampled_from(["none", "none", "result", "pending", "aborted", "timeout"])
        )
        if perturb == "result":
            result = draw(st.sampled_from(_VALUES))
        elif perturb == "pending" and kind != "read":
            respond = None
        elif perturb == "aborted" and kind in ("cas", "rmw"):
            status, result = OpStatus.ABORTED, None
        elif perturb == "timeout":
            status, result = OpStatus.TIMEOUT, None
        rows.append((op, float(invoke), None if respond is None else float(respond), status, result))
    return initial, draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(_small_histories())
def test_checker_agrees_with_brute_force_reference(case):
    initial, rows = case
    history = History()
    for op, invoke, respond, status, result in rows:
        record(history, op, invoke, respond, status=status, result=result)
    expected = _reference_linearizable(history.operations(), initial)
    assert check_history(history, initial_values={"k": initial}) == expected


# ---------------------------------------------------------------- invariants
def test_convergence_check_passes_after_quiescence(hermes_cluster):
    hermes_cluster.preload({"k": 0})
    submit_and_run(hermes_cluster, 0, Operation.write("k", 1))
    hermes_cluster.run(until=hermes_cluster.sim.now + 0.001)
    check_replica_convergence(hermes_cluster.all_replicas())
    check_no_pending_updates(hermes_cluster.all_replicas())


def test_convergence_check_detects_divergence(hermes_cluster):
    hermes_cluster.preload({"k": 0})
    hermes_cluster.replica(0).store.put("k", "tampered")
    with pytest.raises(VerificationError):
        check_replica_convergence(hermes_cluster.all_replicas())


def test_values_from_history_check(hermes_cluster):
    history = History()
    hermes_cluster.preload({"k": "init"})
    op = Operation.write("k", "legit")
    history.invoke(op, 0.0)
    done = []
    hermes_cluster.replica(0).submit(op, lambda o, s, v: done.append(s))
    hermes_cluster.run_until(lambda: bool(done), check_interval=1e-5, max_time=0.01)
    hermes_cluster.run(until=hermes_cluster.sim.now + 0.001)
    history.respond(op, hermes_cluster.sim.now, OpStatus.OK, "legit")
    check_values_from_history(
        hermes_cluster.all_replicas(), history, initial_dataset={"k": "init"}
    )
    hermes_cluster.replica(1).store.put("k", "corrupted")
    with pytest.raises(VerificationError):
        check_values_from_history(
            hermes_cluster.all_replicas(), history, initial_dataset={"k": "init"}
        )


# ------------------------------------------------------- check_all facade
def test_check_all_passes_and_reports_per_checker():
    history = History()
    w, r = Operation.write("k", 1), Operation.read("k")
    record(history, w, 0.0, 1.0, result=1)
    record(history, r, 2.0, 3.0, result=1)
    report = check_all(history)
    assert report.ok
    assert report.passed("linearizability")
    assert report.passed("transactions")
    assert report.checker("migration") is None
    assert not report.passed("migration")
    assert report.summary() == {"linearizability": True, "transactions": True}
    assert report.violations == []


def test_check_all_flags_linearizability_violation_with_prefix():
    history = History()
    w, r = Operation.write("k", 1), Operation.read("k")
    record(history, w, 0.0, 1.0, result=1)
    record(history, r, 2.0, 3.0, result=None)  # stale read after the write
    report = check_all(history)
    assert not report.ok
    assert not report.passed("linearizability")
    lin = report.checker("linearizability")
    assert lin is not None and lin.violations
    assert report.violations[0].startswith("[linearizability]")


def test_check_all_aggregates_migration_records():
    history = History()
    record(history, Operation.write("k", "new"), 10.0, 11.0, result="new")
    records = [
        MigrationRecord(
            migration=ShardMigration(source=0, target=1),
            freeze_time=1.0,
            frozen_time=1.1,
            copied_time=1.2,
            flip_time=1.3,
            values={"k": "old"},
        ),
        MigrationRecord(
            migration=ShardMigration(source=1, target=0),
            freeze_time=5.0,
            frozen_time=5.1,
            copied_time=5.2,
            flip_time=5.3,
        ),
    ]
    report = check_all(history, migration_records=records)
    migration = report.checker("migration")
    assert migration is not None
    assert migration.details["migrations"] == 2
    assert report.ok
