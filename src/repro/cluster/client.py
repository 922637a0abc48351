"""Client sessions driving a replicated deployment.

Three client models share one session contract, :class:`ClientSession`, and
differ only in their arrival process:

* :class:`ClosedLoopClient` — issues the next request only after the previous
  one completed (optionally with think time). Sweeping the number of
  closed-loop clients sweeps offered load, which is how the latency-versus-
  throughput curves (Figure 6a) are produced; with many clients the system
  saturates, which is how the peak-throughput figures (5a, 5b, 7) are
  produced.
* :class:`OpenLoopClient` — issues requests at a fixed Poisson arrival rate
  regardless of completions, modelling external load.
* :class:`AggregatedClient` — one generator per node statistically standing
  in for up to millions of open- or closed-loop sessions (see
  :mod:`repro.workloads.aggregate`): batched merged-Poisson arrival draws and
  deterministic per-session keying instead of per-session objects.

Clients are co-located with replicas, as in the paper's evaluation (§8
discusses the external-client variant): each session is bound to one replica
and submits its requests there. An operation is its own result record: a
session stamps it at submission, fills in its outcome at completion, keeps
it in ``results`` and, optionally, indexes that same object in an
invocation/response history for the checkers.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.txn import TxnOutcome
from repro.errors import SimulationDeadlock, WorkloadError
from repro.sim.rng import SeededRNG
from repro.types import (
    NodeId,
    Operation,
    OpStatus,
    Transaction,
    Value,
    member_value,
)
from repro.verification.history import History
from repro.workloads.aggregate import AggregateArrivals, AggregateWorkload, ScheduleEntry
from repro.workloads.generator import WorkloadMix


#: Default one-way latency between a client and its (co-located) replica:
#: request decode/dispatch over the local RPC path. Applied on the way in and
#: on the way out, so reads cost roughly twice this value end-to-end.
DEFAULT_REQUEST_LATENCY = 0.75e-6

#: Fractional jitter applied per request/response leg: local RPC dispatch is
#: not perfectly deterministic in practice, and the jitter also keeps client
#: activity off an exact time lattice (deterministic lattices make distinct
#: simulated events collide on identical timestamps, where tie-breaking —
#: not physics — decides the interleaving).
CLIENT_LATENCY_JITTER = 0.05


class ClientSession:
    """The submit/record/recover contract every client model shares.

    A model supplies only its arrival process, as three hooks:
    :meth:`_arrive` (run by :meth:`start` and by a recovery restart),
    :meth:`_completed` (run inline when a request completes) and
    :meth:`_resume` (whether a recovery of the bound node restarts the
    arrivals). Everything else is one path for all models: :meth:`_submit`,
    :meth:`_record` / :meth:`_record_txn`, the in-flight dict and the
    recovery handler.

    Args:
        max_ops: The operation budget; the session is :attr:`done` once that
            many requests completed.
    """

    def __init__(
        self,
        client_id: int,
        cluster: Cluster,
        workload: WorkloadMix,
        max_ops: int,
        replica_id: Optional[NodeId] = None,
        history: Optional[History] = None,
        request_latency: float = DEFAULT_REQUEST_LATENCY,
    ) -> None:
        self.client_id = client_id
        self.workload = workload
        self.max_ops = max_ops
        self.history = history
        if replica_id is None:
            replica_id = cluster.node_ids[client_id % len(cluster.node_ids)]
        self.replica_id = replica_id
        self._node = cluster.nodes[replica_id]
        self._shard_replicas = cluster.replicas_on(replica_id)
        # A node with one replica serves every operation itself; otherwise
        # each operation routes to the replica of the shard owning its key,
        # through the bound host's router. That router is epoch-versioned:
        # a live shard migration re-routes this session exactly when the
        # ``active`` view installs on its node.
        self._replica = None
        if len(self._shard_replicas) == 1:
            self._replica = self._shard_replicas[0]
        else:
            self._shard_of = self._node.router.shard_of
        self._sim = cluster.sim
        # Per-request completion context, keyed by op/txn id (one id counter
        # feeds both): ``(op, response-leg latency, epoch, firing session)``
        # (a transaction's: its member ops), the op filled in as its own
        # record at completion. The completion callback is a plain bound
        # method (``self._record``) instead of one functools.partial per
        # operation. It is bound per submit, never stored on the session: a
        # session holding a bound method of itself is a reference cycle, and
        # then a finished cell's op records wait for a full GC pass to be freed.
        self._inflight: Dict[int, Tuple[Any, float, int, int]] = {}
        # Crash/recovery bookkeeping. ``_stalled`` is set when a submission
        # is skipped because the bound node is crashed. ``_epoch`` is bumped
        # when the node recovers, so completions of requests issued before
        # the recovery cannot chain a second request stream (a submission
        # with a future arrival survives a crash+recover window and
        # completes after the arrivals restarted). ``_version`` retires
        # arrival events a recovery superseded.
        self._epoch = 0
        self._version = 0
        self._stalled = False
        self._started = False
        self.request_latency = request_latency
        # Per-client deterministic stream for request/response latency
        # jitter, drawn in issue order (bind .random once; it is consumed
        # twice per operation). The workload seed is folded in so that
        # different experiment seeds decorrelate the jitter streams, like
        # the workload and open-loop arrival RNGs.
        self._lat_random = random.Random(
            (workload.seed * 1_000_003 + (client_id + 1) * 0x9E3779B1) & 0x7FFFFFFF
        ).random
        # Hot-path binds: one bound-method/attribute lookup per operation
        # each, amortized to a single allocation here (none of the bound
        # containers are ever reassigned).
        self._next_op = workload.next_operation
        self.results: List[Operation] = []
        self._results_append = self.results.append
        self._inflight_pop = self._inflight.pop
        self.issued = 0
        self.completed = 0
        self.aborted = 0
        #: Transaction outcomes (multi-key workloads only). A transaction
        #: counts once toward ``issued``/``completed`` regardless of its
        #: member-operation count.
        self.txns_committed = 0
        self.txns_aborted = 0
        cluster.on_recover(replica_id, self._node_recovered)

    @property
    def done(self) -> bool:
        """Whether the session has completed its whole operation budget."""
        return self.completed >= self.max_ops

    def start(self) -> None:
        """Begin issuing requests (idempotent)."""
        if self._started:
            return
        self._started = True
        self._sim.call_soon(self._arrive, self._version)

    # ------------------------------------------------------ the model hooks
    def _arrive(self, version: int) -> None:
        """Issue the next arrival(s) (an engine event; see :meth:`start`)."""
        raise NotImplementedError

    def _completed(self, end: float, session: int) -> None:
        """Run inline when a request of the current epoch completes while
        budget is left; ``end`` is the client-side completion time."""

    def _resume(self) -> bool:
        """Whether a recovery of the bound node restarts the arrivals."""
        return False

    # ------------------------------------------------------------ submission
    def _submit(
        self,
        op,
        issue_time: float,
        request_lat: Optional[float] = None,
        response_lat: float = 0.0,
        session: int = 0,
    ) -> None:
        """Issue ``op`` (an operation or a transaction) at ``issue_time``.

        The request enters the serving node's arrival inbox at ``issue_time
        + request_lat``, which is never in the past: ``submit_at`` at the
        current instant is exactly ``submit``. ``request_lat=None`` draws
        both legs from the session's jitter stream, and transactions always
        do (an aggregated arrival pre-draws the legs of single operations
        only). The op is its own record: its ``start_time`` is stamped here
        and, with a recorded history, it is indexed there at once. A crashed
        serving node would silently drop the submission (the op stays
        pending in the history); it is skipped here instead, keeping the
        in-flight dict free of dead entries, and the stall flag lets a later
        RECOVER restart the session.
        """
        self.issued += 1
        txn = op.__class__ is Transaction
        if request_lat is None or txn:
            base = self.request_latency
            if base > 0:
                rnd = self._lat_random
                request_lat = base * (1.0 + (rnd() * 2.0 - 1.0) * CLIENT_LATENCY_JITTER)
                response_lat = base * (1.0 + (rnd() * 2.0 - 1.0) * CLIENT_LATENCY_JITTER)
            else:
                request_lat = response_lat = 0.0
        history = self.history
        if txn:
            members = op.ops
            if history is not None:
                history.invoke_txn(op, issue_time)
            else:
                for member in members:
                    member.start_time = issue_time
            # Shard 0's replica hands the transaction to the node's 2PC
            # coordinator.
            node = self._shard_replicas[0]
        else:
            if history is not None:
                history.invoke(op, issue_time)
            else:
                op.start_time = issue_time
            node = self._replica
            if node is None:
                node = self._shard_replicas[self._shard_of(op.key)]
        if self._node._crashed:
            self._stalled = True
            return
        if txn:
            self._inflight[op.txn_id] = (members, response_lat, self._epoch, session)
            callback = self._record_txn
        else:
            self._inflight[op.op_id] = (op, response_lat, self._epoch, session)
            callback = self._record
        node.submit_at(issue_time + request_lat, op, callback)

    # ------------------------------------------------------------- recording
    def _record(self, op: Operation, status: OpStatus, value: Value) -> None:
        record, response_lat, epoch, session = self._inflight_pop(op.op_id)
        end = record.end_time = self._sim._now + response_lat
        record.status = status
        record.value = value
        self.completed += 1
        if status is OpStatus.ABORTED:
            self.aborted += 1
        self._results_append(record)
        if epoch == self._epoch and self.issued < self.max_ops:
            # A stale epoch means the bound node recovered (and the arrivals
            # restarted) after this request was issued: record its result,
            # but do not chain a second request stream from it.
            self._completed(end, session)

    def _record_txn(self, txn: Transaction, outcome: TxnOutcome) -> None:
        members, response_lat, epoch, session = self._inflight_pop(txn.txn_id)
        end = self._sim._now + response_lat
        status = outcome.status
        values = outcome.values
        if self.history is not None:
            self.history.close_txn(txn, end, status, values, outcome.commit_times)
        self.completed += 1
        if status is OpStatus.OK:
            self.txns_committed += 1
        else:
            if status is OpStatus.ABORTED:
                self.aborted += 1
            self.txns_aborted += 1
        for member in members:
            member.end_time = end
            member.status = status
            member.value = member_value(member, status, values)
            self._results_append(member)
        if epoch == self._epoch and self.issued < self.max_ops:
            self._completed(end, session)  # see _record

    # -------------------------------------------------------- crash/recovery
    def _node_recovered(self, node_id: NodeId) -> None:
        """Restart the arrivals after the bound node recovers from a crash.

        The epoch bump comes first, so a pre-crash request that still
        completes records its result without chaining (see :meth:`_record`).
        """
        self._epoch += 1
        if self._started and self._resume():
            self._stalled = False
            self._sim.call_soon(self._arrive, self._version)


class ClosedLoopClient(ClientSession):
    """A closed-loop session: one outstanding request at a time.

    Args:
        max_ops: Total operations to issue before the session stops.
        think_time: Simulated delay between a completion and the next issue.
    """

    def __init__(
        self,
        client_id: int,
        cluster: Cluster,
        workload: WorkloadMix,
        max_ops: int,
        think_time: float = 0.0,
        replica_id: Optional[NodeId] = None,
        history: Optional[History] = None,
        request_latency: float = DEFAULT_REQUEST_LATENCY,
    ) -> None:
        super().__init__(client_id, cluster, workload, max_ops, replica_id, history, request_latency)
        self.think_time = think_time

    def _arrive(self, version: int) -> None:
        if self.issued < self.max_ops:
            self._submit(self._next_op(self.client_id), self._sim._now)

    def _completed(self, end: float, session: int) -> None:
        """Issue the next request with at most one simulator event.

        The faithful chain (completion event at the client-side completion
        time ``end``, optional think time, then a submit event one
        request-leg latency later) is collapsed: the issue instant carries
        no handler but bookkeeping, so the request is submitted now for its
        future arrival. With a recorded history the invocation must be
        recorded at its true time, so one event at the issue time is kept.
        """
        issue_time = end + self.think_time if self.think_time > 0 else end
        if self.history is not None:
            self._sim.schedule_at(issue_time, self._arrive, self._version)
        else:
            self._submit(self._next_op(self.client_id), issue_time)

    def _resume(self) -> bool:
        # A crash drops what the node had queued, so an in-flight request
        # at recovery time will never complete: the loop is broken.
        return self._stalled or bool(self._inflight)


class OpenLoopClient(ClientSession):
    """An open-loop session: Poisson arrivals at a fixed rate.

    Arrivals continue through a crash of the bound node (the requests are
    dropped there), so a recovery needs no restart.

    Args:
        rate: Mean request arrival rate in operations per simulated second.
        max_ops: Total operations to issue.
        rng: Random stream for inter-arrival sampling.
    """

    def __init__(
        self,
        client_id: int,
        cluster: Cluster,
        workload: WorkloadMix,
        rate: float,
        max_ops: int,
        replica_id: Optional[NodeId] = None,
        history: Optional[History] = None,
        rng: Optional[random.Random] = None,
        request_latency: float = DEFAULT_REQUEST_LATENCY,
    ) -> None:
        super().__init__(client_id, cluster, workload, max_ops, replica_id, history, request_latency)
        self.rate = rate
        self._rng = rng or random.Random(client_id)

    def _arrive(self, version: int) -> None:
        if self.issued >= self.max_ops:
            return
        self._submit(self._next_op(self.client_id), self._sim._now)
        # No arrival past the budget: it would do nothing, and a pending
        # event would keep the session (and its cell) alive in the engine.
        if self.issued < self.max_ops:
            self._sim.schedule(self._rng.expovariate(self.rate), self._arrive, version)


class AggregatedClient(ClientSession):
    """One generator statistically standing in for ``sessions`` sessions.

    Instead of one Python object per session, a single generator per node
    draws the *merged* arrival schedule of its session population (see
    :class:`repro.workloads.aggregate.AggregateArrivals`) and synthesizes
    each firing session's next operation deterministically (SHA-256-folded
    session ids feeding the usual key distributions and txn steering).
    Arrivals are pre-submitted one batch at a time — one simulator "pump"
    event per ``batch`` operations instead of one arrival event per
    operation — and carry their firing session in the in-flight context.

    Modes:

    * open (``rate`` > 0): merged Poisson arrivals at the aggregate rate,
      independent of completions.
    * closed (``think_time`` > 0): an initial wave at rate
      ``sessions / think_time`` (each session's first request after an
      exponential-equivalent think), then each completion rechains that
      session's next request one think time later — no per-session busy
      state, a documented statistical approximation of N true closed loops.
    * scripted (``schedule`` is not None): replays a materialized
      ``(issue_time, request_lat, response_lat, op)`` schedule, used by
      process-parallel shard execution (see
      :func:`repro.workloads.aggregate.materialize_open_schedule`).

    Crash handling: a generator bound to a crashed node *pauses* (no
    arrivals are drawn while it is down) and resumes from the recovery
    instant on RECOVER — it does not accumulate a backlog to burst-replay.
    Rechains run at completions, which only a live node delivers, so in
    closed mode a session whose request the crash dropped stays silent
    afterwards: there is no per-session state to restart it from.

    Host state: the per-session synthesis dicts live only while a session
    can still fire. Once the budget is drawn — the last pump batch in open
    mode, the last rechain in closed mode — the generator drops them, so
    they do not survive into the reduce.
    """

    def __init__(
        self,
        client_id: int,
        cluster: Cluster,
        workload: WorkloadMix,
        sessions: int,
        max_ops: int,
        rate: Optional[float] = None,
        think_time: float = 0.0,
        replica_id: Optional[NodeId] = None,
        history: Optional[History] = None,
        request_latency: float = DEFAULT_REQUEST_LATENCY,
        session_base: int = 0,
        batch: int = 64,
        schedule: Optional[List[ScheduleEntry]] = None,
    ) -> None:
        if schedule is not None:
            self._mode = "scripted"
            max_ops = len(schedule)
        elif rate is not None and rate > 0:
            self._mode = "open"
        elif think_time > 0:
            self._mode = "closed"
        else:
            raise WorkloadError(
                "AggregatedClient needs a positive rate (open loop) or a "
                "positive think_time (closed loop)"
            )
        super().__init__(client_id, cluster, workload, max_ops, replica_id, history, request_latency)
        self.sessions = sessions
        self._batch = batch
        self._schedule = schedule
        # Arrivals the pump has yet to draw (or replay).
        self._wave_remaining = min(sessions, max_ops) if self._mode == "closed" else max_ops
        # Live synthesis state; released by _release_if_drawn.
        self._agg: Optional[AggregateWorkload] = None
        if schedule is None:
            self._agg = AggregateWorkload(workload)
            self._arrivals = AggregateArrivals(
                sessions=sessions,
                aggregate_rate=float(rate) if self._mode == "open" else sessions / think_time,
                rng=SeededRNG(workload.seed).child(f"aggregated-node-{client_id}"),
                session_base=session_base,
                request_latency=request_latency,
                jitter=CLIENT_LATENCY_JITTER,
                think_time=think_time,
            )

    @property
    def inflight(self) -> int:
        """Requests currently pre-submitted or in service."""
        return len(self._inflight)

    def _arrive(self, version: int) -> None:
        """The pump: pre-submit the next batch of arrivals."""
        remaining = self._wave_remaining
        if version != self._version or remaining <= 0 or self._node.crashed:
            # Superseded by a RECOVER restart, or nothing left, or paused
            # with no backlog: nothing is drawn while the node is down, and
            # a recovery restarts the pump from the recovery instant.
            return
        count = min(self._batch, remaining)
        now = self._sim._now
        schedule = self._schedule
        if schedule is None:
            entries = self._arrivals.draw(now, count)
            synthesize = self._agg.next_operation
            for issue_time, request_lat, response_lat, session in entries:
                self._submit(synthesize(session), issue_time, request_lat, response_lat, session)
            last = entries[-1][0]
        else:
            cursor = len(schedule) - remaining
            entries = schedule[cursor : cursor + count]
            for issue_time, request_lat, response_lat, op in entries:
                # Resuming after a crash window replays late entries now.
                issue_time = max(issue_time, now)
                self._submit(op, issue_time, request_lat, response_lat, op.client_id)
            last = max(entries[-1][0], now)
        self._wave_remaining = remaining - count
        if self._wave_remaining > 0:
            # One engine event per batch: the next batch is drawn when the
            # simulation reaches this batch's last arrival.
            self._sim.schedule_at(last, self._arrive, version)
        else:
            self._release_if_drawn()

    def _completed(self, end: float, session: int) -> None:
        if self._mode == "closed":
            issue_time, request_lat, response_lat, _ = self._arrivals.rechain(end, session)
            self._submit(
                self._agg.next_operation(session), issue_time, request_lat, response_lat, session
            )
            self._release_if_drawn()

    def _release_if_drawn(self) -> None:
        """Drop the synthesis state once no session can fire again.

        The pump synthesizes while the wave has arrivals left, a closed-mode
        rechain while the budget has issues left (see :meth:`_record`).
        Neither count ever grows back, so once both are spent the
        per-session dicts are dead weight for the rest of the run.
        """
        if self._wave_remaining <= 0 and self.issued >= self.max_ops:
            self._agg = None

    def _resume(self) -> bool:
        self._version += 1  # retire any pre-crash pump event still queued
        return True


def run_clients(
    cluster: Cluster,
    clients: List[ClientSession],
    max_time: float = 60.0,
    check_interval: float = 2e-4,
    allow_incomplete: bool = False,
) -> float:
    """Start every client and run the simulation until all are done.

    Args:
        allow_incomplete: Treat hitting ``max_time`` (or a drained event
            queue) with clients still outstanding as a normal bounded run
            instead of raising :class:`~repro.errors.SimulationDeadlock`.
            Fault-schedule fuzzing runs this way: a schedule may legally
            wedge a client forever (a crashed-and-never-recovered node, a
            partition-dropped message on a protocol without
            retransmissions), and the checkers then judge the operations
            that did complete, with pending ones treated as maybe-applied.

    Returns:
        The simulated completion time (the cap, for capped runs).
    """
    for client in clients:
        client.start()
    try:
        return cluster.run_until(
            lambda: all(c.done for c in clients),
            check_interval=check_interval,
            max_time=max_time,
        )
    except SimulationDeadlock:
        if not allow_incomplete:
            raise
        return cluster.sim.now
