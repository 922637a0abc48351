"""Aggregated arrival-process generation for very large session counts.

A per-session client object costs a Python object, an in-flight dict and a
latency RNG — fine for hundreds of sessions, fatal for the paper family's
"millions of users" framing. This module replaces the *population* with a
statistical stand-in while keeping every per-operation quantity (key choice,
op mix, txn steering, latency jitter) deterministic per synthetic session:

* :func:`fold_session` hashes ``(workload seed, session id)`` into a 64-bit
  stream root, so session 731_204 draws the same requests whether it is one
  of 10^3 or 10^6 sessions.
* :class:`SessionStream` is a splitmix64 counter generator exposing only
  ``random()`` — the single method the key distributions and
  :meth:`~repro.workloads.generator.WorkloadMix._next_transaction` consume —
  so one shared shim object replaces one ``random.Random`` per session.
* :class:`AggregateWorkload` synthesizes the op stream of any session on
  demand, mirroring :meth:`WorkloadMix.next_operation` draw-for-draw.
* :class:`AggregateArrivals` draws the merged arrival schedule: the
  superposition of N independent Poisson sessions is a single Poisson
  process at the aggregate rate whose next firing session is uniform over
  the population (memorylessness makes every session equally likely to fire
  next), so one exponential gap plus one uniform pick per arrival reproduces
  the merged statistics without touching N.

Bookkeeping is bounded by the *operation budget*, never by the session
count: the op-index dict only holds sessions that actually fired, and the
fold memo only those that fired at least twice (a session's first firing
computes its fold without storing it — at 10^6 sessions most sessions fire
once). :class:`~repro.cluster.client.AggregatedClient` drops the whole
:class:`AggregateWorkload` once its budget is drawn.

Seeding discipline: everything here draws from named
:class:`repro.sim.rng.SeededRNG` streams (lint rule D002 enforces this for
``workloads/aggregate*`` modules) — constructing ad-hoc ``random.Random``
instances per session is exactly the cost this module exists to avoid.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import WorkloadError
from repro.sim.rng import SeededRNG
from repro.types import Operation, OpType, Transaction
from repro.workloads.generator import WorkloadMix

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV_2_53 = 1.0 / (1 << 53)

#: Draw-counter stride between consecutive operations of one session: each
#: operation owns a disjoint window of 2**16 splitmix64 counter values, so a
#: multi-draw operation (a transaction) can never overlap the next
#: operation's draws.
_OP_STRIDE = 1 << 16

#: One timed arrival: ``(issue_time, request_latency, response_latency, x)``
#: where ``x`` is a session id (live generation) or a ready-made operation
#: (materialized schedules for parallel shard replay).
ArrivalEntry = Tuple[float, float, float, int]
ScheduleEntry = Tuple[float, float, float, Union[Operation, Transaction]]


def fold_session(seed: int, session: int) -> int:
    """Fold ``(seed, session)`` into a 64-bit per-session stream root.

    SHA-256 of the repr of ``(seed, session, "agg-session")``, truncated to
    8 bytes: avalanche over both inputs so that adjacent session ids land on
    uncorrelated splitmix64 sequences, and stable across Python versions (no
    ``hash()``). The f-string spells that repr byte for byte without
    building the tuple.
    """
    payload = f"({int(seed)}, {int(session)}, 'agg-session')".encode("ascii")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


class SessionStream:
    """A reusable per-session random shim (splitmix64 in counter mode).

    Exposes only ``random()`` — the sole draw method the key distributions
    and the transaction steering consume — so a single instance stands in
    for every session's ``random.Random``. ``reset(fold, op_index)`` points
    it at the disjoint counter window owned by one (session, operation)
    pair; successive ``random()`` calls walk that window.
    """

    __slots__ = ("_state",)

    def __init__(self) -> None:
        self._state = 0

    def reset(self, fold: int, op_index: int) -> None:
        """Point the stream at operation ``op_index`` of session ``fold``."""
        self._state = (fold + (op_index * _OP_STRIDE) * _GAMMA) & _MASK64

    def random(self) -> float:
        """The next float in [0, 1) — splitmix64 output mapped like
        ``random.Random.random`` (53 mantissa bits)."""
        state = (self._state + _GAMMA) & _MASK64
        self._state = state
        z = ((state ^ (state >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        z = z ^ (z >> 31)
        return (z >> 11) * _INV_2_53


class AggregateWorkload:
    """On-demand synthesis of any session's operation stream.

    Wraps a :class:`WorkloadMix` and mirrors its ``next_operation`` draw
    order exactly — txn-fraction check, key sample, write-ratio check,
    sequence bump, rmw check — but sources every draw from a
    :class:`SessionStream` keyed by ``(workload seed, session, op index)``
    instead of a per-client ``random.Random``. State is two dicts: the op
    index of every session that fired (≤ the op budget) and the memoized
    fold of every session that fired at least twice. A first firing folds
    without storing, so a one-shot session costs one dict entry, not two.
    """

    def __init__(self, workload: WorkloadMix) -> None:
        self.workload = workload
        self._folds: Dict[int, int] = {}
        self._op_index: Dict[int, int] = {}
        self._stream = SessionStream()

    def next_operation(self, session: int) -> Union[Operation, Transaction]:
        """Synthesize the next operation of ``session``."""
        workload = self.workload
        index = self._op_index.get(session, 0)
        self._op_index[session] = index + 1
        if index == 0:
            fold = fold_session(workload.seed, session)
        else:
            fold = self._folds.get(session)
            if fold is None:
                fold = self._folds[session] = fold_session(workload.seed, session)
        stream = self._stream
        stream.reset(fold, index)
        if workload.txn_fraction and stream.random() < workload.txn_fraction:
            # Reuse the WorkloadMix steering logic verbatim: it only needs
            # ``rng.random()`` (directly and via distribution.sample), which
            # the shim provides, and it books sequences under the session id.
            return workload._next_transaction(session, stream)  # type: ignore[arg-type]
        key = workload.distribution.sample(stream)  # type: ignore[arg-type]
        if stream.random() >= workload.write_ratio:
            return Operation(OpType.READ, key, client_id=session)
        sequence = workload._client_sequences.get(session, 0) + 1
        workload._client_sequences[session] = sequence
        assert workload.value_factory is not None
        value = workload.value_factory(key, sequence * 1_000 + session)
        if workload.rmw_ratio > 0.0 and stream.random() < workload.rmw_ratio:
            return Operation.rmw(key, value, client_id=session)
        return Operation.write(key, value, client_id=session)


class AggregateArrivals:
    """Batched arrival schedule for ``sessions`` synthetic sessions.

    Open loop: the superposition of N independent Poisson sessions is one
    Poisson process at the aggregate rate; :meth:`draw` produces batches of
    (time, latencies, session) tuples with exponential gaps and uniform
    session picks. Closed loop reuses the same machinery for its arrival
    *waves* (session think times are exponential-equivalent in aggregate:
    N sessions each re-arriving after a mean think time form a Poisson
    stream at rate N/think while all are idle) and adds :meth:`rechain` for
    the per-completion follow-up arrival.

    Latency jitter matches the shape :meth:`ClientSession._submit` draws
    (two uniform draws per operation, ±``jitter`` around the base) but from
    a dedicated named stream, so per-op timing is independent of the shard
    layout when schedules are materialized for parallel replay.
    """

    def __init__(
        self,
        *,
        sessions: int,
        aggregate_rate: float,
        rng: SeededRNG,
        session_base: int = 0,
        request_latency: float = 0.0,
        jitter: float = 0.0,
        think_time: float = 0.0,
    ) -> None:
        if sessions < 1:
            raise WorkloadError("aggregated arrivals need sessions >= 1")
        if aggregate_rate <= 0:
            raise WorkloadError("aggregated arrivals need a positive rate")
        self.sessions = sessions
        self.aggregate_rate = aggregate_rate
        self.session_base = session_base
        self.request_latency = request_latency
        self.jitter = jitter
        self.think_time = think_time
        # Named streams: gap draws, session picks and latency jitter stay
        # decorrelated, and adding draws to one never perturbs another.
        self._gap = rng.stream("arrival-gaps").expovariate
        self._pick = rng.stream("session-picks").random
        self._lat = rng.stream("latency-jitter").random

    def _latencies(self) -> Tuple[float, float]:
        base = self.request_latency
        if base <= 0:
            return 0.0, 0.0
        lat = self._lat
        jitter = self.jitter
        return (
            base * (1.0 + (lat() * 2.0 - 1.0) * jitter),
            base * (1.0 + (lat() * 2.0 - 1.0) * jitter),
        )

    def draw(self, start: float, count: int) -> List[ArrivalEntry]:
        """Draw the next ``count`` merged arrivals after ``start``."""
        entries: List[ArrivalEntry] = []
        append = entries.append
        gap, pick, sessions = self._gap, self._pick, self.sessions
        base = self.session_base
        rate = self.aggregate_rate
        now = start
        for _ in range(count):
            now += gap(rate)
            session = base + int(pick() * sessions)
            request_lat, response_lat = self._latencies()
            append((now, request_lat, response_lat, session))
        return entries

    def rechain(self, completion_time: float, session: int) -> ArrivalEntry:
        """The closed-loop follow-up arrival of ``session`` after completing
        at ``completion_time`` (one think time later)."""
        request_lat, response_lat = self._latencies()
        return (completion_time + self.think_time, request_lat, response_lat, session)


def split_sessions(total_sessions: int, num_nodes: int) -> List[int]:
    """Partition ``total_sessions`` across ``num_nodes`` generators
    (earlier nodes absorb the remainder, like replica round-robin)."""
    per_node, extra = divmod(total_sessions, num_nodes)
    return [per_node + (1 if index < extra else 0) for index in range(num_nodes)]


def materialize_open_schedule(
    workload: WorkloadMix,
    *,
    sessions: int,
    total_ops: int,
    rate: float,
    rng: SeededRNG,
    session_base: int = 0,
    request_latency: float = 0.0,
    jitter: float = 0.0,
) -> List[ScheduleEntry]:
    """Materialize one generator's full open-loop timed schedule.

    Process-parallel shard execution draws the *unsharded* schedule once per
    shard worker and filters it to the shard's keys — replaying (rather than
    re-drawing) makes per-op times, key choice and mix invariant under the
    shard count, exactly like :class:`~repro.workloads.generator.ScriptedOps`
    does for the per-session model. Latencies are drawn here, in unsharded
    arrival order, for the same reason.
    """
    aggregate = AggregateWorkload(workload)
    arrivals = AggregateArrivals(
        sessions=sessions,
        aggregate_rate=rate,
        rng=rng,
        session_base=session_base,
        request_latency=request_latency,
        jitter=jitter,
    )
    schedule: List[ScheduleEntry] = []
    for issue_time, request_lat, response_lat, session in arrivals.draw(0.0, total_ops):
        op = aggregate.next_operation(session)
        schedule.append((issue_time, request_lat, response_lat, op))
    return schedule
