"""Per-key linearizability checking.

Hermes provides single-key linearizable reads, writes and RMWs; because
linearizability is compositional (paper §2.2), checking each key's
sub-history independently suffices. The checker is a Wing & Gong search
with Lowe-style memoization of dead ends: try to build a legal sequential
order of the operations that respects real-time precedence.

Register semantics checked per key:

* a read must return the value of the most recently linearized update (or
  the initial value if none);
* a successful compare-and-swap RMW must observe its expected value at its
  linearization point; a failed-compare RMW must observe a different value;
* updates whose outcome is undecided (never completed because a client
  crashed or the run ended, or ``TIMEOUT``) may be linearized or omitted;
* RMWs reported ABORTED must have had no effect.

**State encoding.** A key's records are sorted by invocation time once. An
operation may be linearized next only if it was invoked no later than the
earliest response among the operations still to place, which is at most the
response of the earliest-invoked one (index ``lo``). The candidates are
therefore a window of at most *concurrent sessions* records starting at
``lo``, and a search state is three small values: ``lo``, a bitset of the
records past ``lo`` already placed, and the register value. The cost is
O(operations x window) time and one small tuple per dead end, independent of
how long the key's history is.

**Absorption.** A *completed* operation that can only observe the register
(a read; a compare-and-swap that reported a value other than the one it
would install, so its compare failed) and that is a candidate whose
observation equals the current register value is placed immediately, without
branching. This loses no linearization: take any legal order of the
remaining operations. The observer changes no state wherever it stands, so
removing it leaves every other operation legal; re-inserting it at the front
is legal because it observes exactly the current value, and respects real
time because it is a candidate (nothing still to place responded before it
was invoked). So a legal order exists with the observer first if and only if
one exists at all. Operations that *may* write — including a write of the
value the register already holds — are never absorbed: moved to the front
they could stop overwriting what came before them.

``max_states`` bounds the number of states entered per key (absorbed
operations enter none). A search that runs out reports the key as
*inconclusive*, not as a violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.types import Key, Operation, OpStatus, OpType, Value
from repro.verification.history import History, value_key

#: Sentinel returned by the apply step when an operation cannot be linearized
#: at the current point (distinct from ``None``, which is a legal register value).
_IMPOSSIBLE = object()

#: ``_observed_value`` of a record that may write: equal to no register value.
_MAY_WRITE = object()

_INF = float("inf")


def _trailing_ones(bits: int) -> int:
    """Length of the run of set bits at the low end of ``bits``."""
    return (~bits & (bits + 1)).bit_length() - 1


def _observed_value(record: Operation) -> object:
    """The one register value a pure observer is legal at, else ``_MAY_WRITE``.

    Mirrors :meth:`LinearizabilityChecker._apply`: a completed read is legal
    exactly where the register equals its result; a completed
    compare-and-swap whose result is neither the value it installs (so it
    cannot have succeeded) nor its compare value (so it can have failed) is
    legal exactly where the register equals its result. Neither changes it.
    """
    if not record.completed:
        return _MAY_WRITE
    if record.op_type is OpType.READ:
        return record.value
    if (
        record.op_type is OpType.RMW
        and record.compare is not None
        and record.status is OpStatus.OK
        and record.value != record.payload
        and record.value != record.compare
    ):
        return record.value
    return _MAY_WRITE


def _zone_ranks(
    records: Sequence[Operation], observed: Sequence[object], response: Sequence[float]
) -> List[float]:
    """Per record, the order in which to try it among the candidates of a state.

    The records that install one value and the pure observers of that value
    form a *cluster*; where written values are distinct, a linearization is
    a sequence of whole clusters, and cluster A must come before cluster B
    if any record of A responded before any record of B was invoked. Ranking
    clusters by ``min(earliest response, latest invocation)`` — the low end
    of Gibbons & Korach's zones — respects every such constraint of a
    linearizable history, so the first descent is usually a linearization.
    This only orders a state's successors; the search stays exhaustive.
    ``response`` is each record's response time, infinite while undecided.
    """
    clusters = [
        value_key(record.payload if seen is _MAY_WRITE else seen)
        for record, seen in zip(records, observed)
    ]
    earliest_response: Dict[object, float] = {}
    latest_invoke: Dict[object, float] = {}
    for record, responded, cluster in zip(records, response, clusters):
        earliest_response[cluster] = min(responded, earliest_response.get(cluster, _INF))
        latest_invoke[cluster] = max(record.start_time, latest_invoke.get(cluster, -_INF))
    return [min(earliest_response[cluster], latest_invoke[cluster]) for cluster in clusters]


@dataclass
class CheckResult:
    """Outcome of checking one key's sub-history.

    Attributes:
        key: The key checked.
        linearizable: Whether a valid linearization was found.
        operations: Number of operations considered.
        explored_states: Number of search states entered (diagnostics).
        inconclusive: The search budget ran out before a linearization was
            found or ruled out (``linearizable`` is then False: an
            exhausted search is not a pass).
    """

    key: Key
    linearizable: bool
    operations: int
    explored_states: int
    inconclusive: bool = False


class LinearizabilityChecker:
    """Checks recorded histories for per-key linearizability."""

    def __init__(self, initial_value: Value = None, max_states: int = 2_000_000) -> None:
        self.initial_value = initial_value
        self.max_states = max_states

    # ------------------------------------------------------------ public API
    def check(self, history: History, initial_values: Optional[Dict[Key, Value]] = None) -> List[CheckResult]:
        """Check every key's sub-history; returns one result per key."""
        return self.check_keys(history.per_key(), initial_values)

    def check_keys(
        self,
        per_key: Mapping[Key, Sequence[Operation]],
        initial_values: Optional[Dict[Key, Value]] = None,
    ) -> List[CheckResult]:
        """Check already grouped sub-histories (see :meth:`History.per_key`)."""
        results = []
        for key, records in per_key.items():
            initial = self.initial_value
            if initial_values is not None and key in initial_values:
                initial = initial_values[key]
            results.append(self.check_key(key, records, initial))
        return results

    def is_linearizable(self, history: History, initial_values: Optional[Dict[Key, Value]] = None) -> bool:
        """Whether every key's sub-history is linearizable."""
        return all(result.linearizable for result in self.check(history, initial_values))

    def check_key(
        self,
        key: Key,
        records: Sequence[Operation],
        initial_value: Value = None,
    ) -> CheckResult:
        """Check one key's sub-history."""
        relevant = [r for r in records if self._relevant(r)]
        verdict, explored = self._search(relevant, initial_value)
        return CheckResult(
            key=key,
            linearizable=verdict is True,
            operations=len(relevant),
            explored_states=explored,
            inconclusive=verdict is None,
        )

    # -------------------------------------------------------------- internals
    @staticmethod
    def _relevant(record: Operation) -> bool:
        if record.op_type is OpType.READ and not record.completed:
            # A read with no decided outcome has no observable effect.
            return False
        if record.status is OpStatus.ABORTED:
            # An aborted RMW must have had no effect; it is excluded from the
            # order (its absence of effect is what the remaining history must
            # be consistent with).
            return False
        if record.status is OpStatus.UNAVAILABLE:
            return False
        return True

    def _search(
        self, records: Sequence[Operation], initial_value: Value
    ) -> Tuple[Optional[bool], int]:
        """Search for a legal linearization of one key's relevant records.

        Returns:
            ``(verdict, explored)``: ``verdict`` is True when a linearization
            exists, False when none does, and ``None`` when the budget of
            ``max_states`` entered states ran out first.
        """
        # Invocation order (stable): the operations that may go next are then
        # always a short window starting at the earliest unplaced one.
        records = sorted(records, key=attrgetter("start_time"))
        n = len(records)
        invoke = [record.start_time for record in records]
        response = [r.end_time if r.completed else _INF for r in records]
        observed = [_observed_value(record) for record in records]
        rank = _zone_ranks(records, observed, response)
        apply = self._apply
        max_states = self.max_states
        explored = 0
        #: Dead ends: ``(lo, mask, value)`` states with no linearization.
        seen: Set[Tuple[int, int, object]] = set()
        #: One frame per partial linearization (depth-first, explicit stack so
        #: a hot key with thousands of operations cannot overflow the
        #: interpreter's recursion limit): the state's memo key and the
        #: generator of its untried successors.
        stack: List[Tuple[Tuple[int, int, object], Iterator[Tuple[int, int, Value]]]] = []

        def successors(lo: int, mask: int, value: Value, candidates: List[int]):
            # Every candidate linearized next. A pending update needs no
            # "never took effect" branch: its response is at infinity and it
            # is never impossible, so placing it last is always legal and
            # leaves every other operation exactly where skipping it would.
            for index in sorted(candidates, key=rank.__getitem__):
                outcome = apply(records[index], value)
                if outcome is not _IMPOSSIBLE:
                    yield lo, mask | 1 << (index - lo), outcome

        # A state is ``(lo, mask, value)``: ``lo`` is the earliest-invoked
        # operation not yet placed, bit ``j`` of ``mask`` says operation
        # ``lo + j`` is already placed, ``value`` is the register.
        state: Optional[Tuple[int, int, Value]] = (0, 0, initial_value)
        while True:
            if state is not None:
                lo, mask, value = state
                # One scan from ``lo`` finds every operation that may go next:
                # those invoked no later than the earliest response among the
                # operations still to place. Records are in invocation order
                # and respond after they are invoked, so the scan stops at the
                # first one invoked after the running minimum response.
                horizon = _INF
                candidates: List[int] = []
                index, rest = lo, mask
                while index < n:
                    if rest & 1:
                        run = _trailing_ones(rest)
                        index += run
                        rest >>= run
                        continue
                    if invoke[index] > horizon:
                        break
                    if observed[index] == value:
                        # Absorbed: an operation that only observes the
                        # register, and legally observes it now, is placed
                        # at once and never branched on (see module doc).
                        mask |= 1 << (index - lo)
                    else:
                        candidates.append(index)
                        if response[index] < horizon:
                            horizon = response[index]
                    index += 1
                    rest >>= 1
                if not candidates:
                    return True, explored
                run = _trailing_ones(mask)
                lo += run
                mask >>= run
                explored += 1
                if explored > max_states:
                    return None, max_states
                memo_key = (lo, mask, value_key(value))
                if memo_key not in seen:
                    stack.append((memo_key, successors(lo, mask, value, candidates)))
            if not stack:
                return False, explored
            memo_key, untried = stack[-1]
            state = next(untried, None)
            if state is None:
                # Every successor was a dead end: remember it and backtrack.
                seen.add(memo_key)
                stack.pop()

    def _apply(self, record: Operation, value: Value):
        """Apply one operation at its linearization point.

        Returns:
            The new register value, or :data:`_IMPOSSIBLE` if the operation
            cannot be linearized at this point (its observed result
            contradicts the current value).
        """
        if record.op_type is OpType.READ:
            if record.completed and record.value != value:
                return _IMPOSSIBLE
            return value
        payload = record.payload
        if record.op_type is OpType.WRITE:
            return payload
        # RMW: compare-and-swap semantics. A successful install returns the
        # installed (new) value; a failed compare returns the observed
        # current value and leaves the register unchanged.
        if record.compare is not None:
            if record.completed and record.status is OpStatus.OK:
                if value == record.compare:
                    if record.value != payload:
                        return _IMPOSSIBLE
                    return payload
                if record.value != value:
                    return _IMPOSSIBLE
                return value
            # Pending RMW: it can only have installed its value if the compare
            # matched at its linearization point.
            if value == record.compare:
                return payload
            return value
        # Unconditional RMW: installs and returns its value.
        if record.completed and record.status is OpStatus.OK and record.value != payload:
            return _IMPOSSIBLE
        return payload


def check_history(
    history: History,
    initial_values: Optional[Dict[Key, Value]] = None,
    initial_value: Value = None,
) -> bool:
    """Convenience wrapper: check an entire history for linearizability."""
    checker = LinearizabilityChecker(initial_value=initial_value)
    return checker.is_linearizable(history, initial_values)
