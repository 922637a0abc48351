"""Client sessions driving a replicated deployment.

Three client models are provided:

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
  :mod:`repro.workloads.aggregate`): batched merged-Poisson arrival draws,
  deterministic per-session keying, and one in-flight dict per generator
  instead of per-session objects.

Clients are co-located with replicas, as in the paper's evaluation (§8
discusses the external-client variant): each session is bound to one replica
and submits its requests there. Sessions record per-operation results and,
optionally, an invocation/response history for the linearizability checker.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.txn import ClientTxnSubmit, TxnOutcome, ops_wire_size
from repro.errors import SimulationDeadlock, WorkloadError
from repro.sim.rng import SeededRNG
from repro.types import (
    NodeId,
    Operation,
    OperationResult,
    OpStatus,
    OpType,
    Transaction,
    Value,
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
    """Common machinery for client sessions (result/history recording)."""

    def __init__(
        self,
        client_id: int,
        cluster: Cluster,
        workload: WorkloadMix,
        replica_id: Optional[NodeId] = None,
        history: Optional[History] = None,
        request_latency: float = DEFAULT_REQUEST_LATENCY,
    ) -> None:
        self.client_id = client_id
        self.cluster = cluster
        self.workload = workload
        self.history = history
        if replica_id is None:
            replica_id = cluster.node_ids[client_id % len(cluster.node_ids)]
        self.replica_id = replica_id
        if cluster.sharded:
            # Key-range sharding: each operation routes to the replica of
            # the shard owning its key, on this session's bound node. The
            # bound node's router is epoch-versioned: a live shard
            # migration re-routes this session exactly when the ``active``
            # view installs on its node.
            self._replica = None
            self._shard_replicas = cluster.replicas_on(replica_id)
            self._shard_of = cluster.host_router(replica_id).shard_of
        else:
            self._replica = cluster.replica(replica_id)
        self._sim = cluster.sim
        # Per-operation completion context, keyed by op/txn id: ``(start,
        # response_lat, epoch)``, plus the firing session for aggregated
        # generators. Completion callbacks are the bound methods below —
        # allocated once per session instead of one functools.partial per
        # operation (a named hot-path allocation; ``cluster.client.self_share``
        # in perf/).
        self._inflight: Dict[int, Tuple] = {}
        self._txn_inflight: Dict[int, Tuple[float, float, int]] = {}
        # Crash/recovery bookkeeping: ``_stalled`` is set when an issue is
        # skipped because the bound node is crashed; ``_epoch`` is bumped
        # when the node recovers so that completions of operations issued
        # before the recovery cannot double-start the closed loop's
        # completion chain (ops submitted with a future arrival survive a
        # crash+recover window and complete after the chain restarted).
        self._epoch = 0
        self._stalled = False
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
        self._record_cb = self._record
        self._next_op = workload.next_operation
        self.results: List[OperationResult] = []
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
        # Only sessions that actually override on_complete (e.g. closed-loop
        # issuance) pay for a completion event per operation.
        self._wants_completion_hook = (
            type(self).on_complete is not ClientSession.on_complete
        )

    # ------------------------------------------------------------ bookkeeping
    def _draw_latencies(self) -> "tuple[float, float]":
        """Jittered (request, response) latencies for one operation."""
        base = self.request_latency
        if base <= 0:
            return 0.0, 0.0
        rnd = self._lat_random
        jitter = CLIENT_LATENCY_JITTER
        return (
            base * (1.0 + (rnd() * 2.0 - 1.0) * jitter),
            base * (1.0 + (rnd() * 2.0 - 1.0) * jitter),
        )

    def _replica_for(self, op: Operation):
        """The replica serving ``op`` (shard-routed on sharded clusters)."""
        replica = self._replica
        if replica is None:
            return self._shard_replicas[self._shard_of(op.key)]
        return replica

    def _issue(self, op: Operation) -> None:
        if op.__class__ is Transaction:
            self._issue_txn(op)
            return
        self.issued += 1
        start = self.cluster.sim.now
        if self.history is not None:
            self.history.invoke(op, start)
        request_lat, response_lat = self._draw_latencies()
        replica = self._replica_for(op)
        if replica.crashed:
            # The node would silently drop the submission anyway (the op
            # stays pending in the history); skipping it here keeps the
            # in-flight context dict from accumulating dead entries. The
            # stall flag lets a later RECOVER restart the session.
            self._stalled = True
            return
        if request_lat > 0:
            self._inflight[op.op_id] = (start, response_lat, self._epoch)
            replica.submit_at(start + request_lat, op, self._record)
        else:
            self._submit(op, start)

    # ----------------------------------------------------------- transactions
    def _txn_node(self):
        """The node process receiving this session's transaction hand-offs."""
        if self._replica is not None:
            return self._replica
        return self.cluster.hosts[self.replica_id]

    def _issue_txn(self, txn: Transaction, issue_time: Optional[float] = None) -> None:
        """Issue a multi-key transaction to the bound node's 2PC coordinator.

        ``issue_time`` may lie in the future (the closed loop's collapsed
        completion chain); the hand-off enters the node's arrival inbox at
        ``issue_time + request_latency`` like any other client request.
        """
        self.issued += 1
        sim_now = self._sim._now
        if issue_time is None:
            issue_time = sim_now
        if self.history is not None:
            self.history.invoke_txn(txn, issue_time)
        request_lat, response_lat = self._draw_latencies()
        node = self._txn_node()
        if node.crashed:
            self._stalled = True
            return  # dropped at the node; see _issue
        self._txn_inflight[txn.txn_id] = (issue_time, response_lat, self._epoch)
        submit = ClientTxnSubmit(txn, self._record_txn)
        config = self.cluster.config.replica
        size = ops_wire_size(txn.ops, config.key_size, config.value_size)
        arrival = issue_time + request_lat
        if arrival > sim_now:
            node.submit_local_at(arrival, submit, size_bytes=size)
        else:
            node.submit_local(submit, size_bytes=size)

    def _record_txn(self, txn: Transaction, outcome: TxnOutcome) -> None:
        start, response_lat, epoch = self._txn_inflight.pop(txn.txn_id)
        end = self._sim._now + response_lat
        status = outcome.status
        if self.history is not None:
            self.history.respond_txn(txn, end, status, outcome.values, outcome.commit_times)
        self.completed += 1
        if status is OpStatus.OK:
            self.txns_committed += 1
        else:
            if status is OpStatus.ABORTED:
                self.aborted += 1
            self.txns_aborted += 1
        committed = status is OpStatus.OK
        served_by = self.replica_id
        for op in txn.ops:
            if committed:
                value = outcome.values.get(op.op_id) if op.op_type is OpType.READ else op.value
            else:
                value = None
            self.results.append(
                OperationResult(
                    op=op,
                    status=status,
                    value=value,
                    start_time=start,
                    end_time=end,
                    served_by=served_by,
                )
            )
        if epoch == self._epoch:
            # A stale epoch means the bound node recovered (and the chain
            # restarted) after this transaction was issued: record the
            # result above but do not double-start the completion chain.
            self._completion_chain(response_lat)
        if not self._wants_completion_hook:
            return
        if response_lat > 0:
            self.cluster.sim.schedule(response_lat, self.on_complete, txn.ops[0], status, None)
        else:
            self.on_complete(txn.ops[0], status, None)

    def _submit(self, op: Operation, start: float) -> None:
        replica = self._replica_for(op)
        if replica.crashed:
            self._stalled = True
            return  # dropped at the node; see _issue
        self._inflight[op.op_id] = (start, 0.0, self._epoch)
        replica.submit(op, self._record)

    def _record(self, op: Operation, status: OpStatus, value: Value) -> None:
        # The per-operation context (issue time, response-leg latency) is
        # keyed by op id in ``_inflight``: one dict store+pop per operation
        # replaces the functools.partial allocation each completion
        # callback used to cost.
        start, response_lat, epoch = self._inflight_pop(op.op_id)
        end = self._sim._now + response_lat
        if self.history is not None:
            self.history.respond(op, end, status, value)
        self.completed += 1
        if status is OpStatus.ABORTED:
            self.aborted += 1
        self._results_append(
            OperationResult(
                op=op,
                status=status,
                value=value,
                start_time=start,
                end_time=end,
                served_by=self.replica_id,
            )
        )
        if epoch == self._epoch:
            # See _record_txn: stale-epoch completions must not restart
            # the completion chain a second time.
            self._completion_chain(response_lat)
        if not self._wants_completion_hook:
            return
        if response_lat > 0:
            self.cluster.sim.schedule(response_lat, self.on_complete, op, status, value)
        else:
            self.on_complete(op, status, value)

    def _completion_chain(self, response_lat: float) -> None:
        """Internal hook run inline at completion time (no extra event).

        Subclasses that react to completions at the *client side* of the
        request latency (i.e. at ``now + request_latency``) should override
        :meth:`on_complete` instead; this hook runs at the replica-side
        completion instant and is used by the closed loop to schedule the
        next request without paying one simulator event per operation.
        """

    def on_complete(self, op: Operation, status: OpStatus, value: Value) -> None:
        """Hook for subclasses (e.g. reacting to completions client-side)."""


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
        super().__init__(client_id, cluster, workload, replica_id, history, request_latency)
        self.max_ops = max_ops
        self.think_time = think_time
        self._started = False
        # A crash of the bound node stalls the closed loop (issues are
        # skipped while it is down); resume when it recovers instead of
        # skipping it forever.
        cluster.on_recover(self.replica_id, self._node_recovered)

    @property
    def done(self) -> bool:
        """Whether the session has completed all of its operations."""
        return self.completed >= self.max_ops

    def start(self) -> None:
        """Begin issuing requests (idempotent)."""
        if self._started:
            return
        self._started = True
        self.cluster.sim.call_soon(self._issue_next)

    def _issue_next(self) -> None:
        if self.issued >= self.max_ops:
            return
        self._issue(self.workload.next_operation(self.client_id))

    def _node_recovered(self, node_id: NodeId) -> None:
        """Restart the loop after the bound node recovers from a crash.

        Bumping the epoch first means any pre-crash operation that still
        completes (a submission whose arrival outlived the crash window)
        records its result without double-starting the chain.
        """
        self._epoch += 1
        if not self._started:
            return
        if self._stalled or self._inflight or self._txn_inflight:
            self._stalled = False
            self.cluster.sim.call_soon(self._issue_next)

    def _completion_chain(self, response_lat: float) -> None:
        """Schedule the next request with a single simulator event.

        The faithful chain (completion event at ``now +`` the response-leg
        latency, optional think time, then a submit event one request-leg
        latency later) is collapsed into one event at the same final
        timestamp.
        The invocation ("issue") time itself never carried an event handler
        other than bookkeeping, so it is computed here and passed along.
        With a recorded history the issue must be recorded at its true
        time, so one event at the issue time is kept.
        """
        if self.issued >= self.max_ops:
            return
        sim = self._sim
        issue_time = sim._now + response_lat if response_lat > 0 else sim._now
        if self.think_time > 0:
            issue_time += self.think_time
        if self.history is not None:
            sim.schedule_at(issue_time, self._issue_next)
            return
        op = self._next_op(self.client_id)
        if op.__class__ is Transaction:
            self._issue_txn(op, issue_time)
            return
        self.issued += 1
        # Inlined _draw_latencies (two jitter draws per op, same RNG order)
        # and _replica_for: this chain runs once per closed-loop operation.
        base = self.request_latency
        if base > 0:
            rnd = self._lat_random
            request_lat = base * (1.0 + (rnd() * 2.0 - 1.0) * CLIENT_LATENCY_JITTER)
            next_response_lat = base * (1.0 + (rnd() * 2.0 - 1.0) * CLIENT_LATENCY_JITTER)
        else:
            request_lat = next_response_lat = 0.0
        replica = self._replica
        if replica is None:
            replica = self._shard_replicas[self._shard_of(op.key)]
        if replica.crashed:
            self._stalled = True
            return  # dropped at the node; see _issue
        if request_lat > 0 or issue_time > sim._now:
            self._inflight[op.op_id] = (issue_time, next_response_lat, self._epoch)
            replica.submit_at(issue_time + request_lat, op, self._record_cb)
        else:
            self._submit(op, issue_time)


class OpenLoopClient(ClientSession):
    """An open-loop session: Poisson arrivals at a fixed rate.

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
        super().__init__(client_id, cluster, workload, replica_id, history, request_latency)
        self.rate = rate
        self.max_ops = max_ops
        self._rng = rng or random.Random(client_id)
        self._started = False

    @property
    def done(self) -> bool:
        """Whether every issued operation has completed."""
        return self.completed >= self.max_ops

    def start(self) -> None:
        """Begin issuing requests (idempotent)."""
        if self._started:
            return
        self._started = True
        self.cluster.sim.call_soon(self._arrival)

    def _arrival(self) -> None:
        if self.issued >= self.max_ops:
            return
        self._issue(self.workload.next_operation(self.client_id))
        gap = self._rng.expovariate(self.rate)
        self.cluster.sim.schedule(gap, self._arrival)


class AggregatedClient(ClientSession):
    """One generator statistically standing in for ``sessions`` sessions.

    Instead of one Python object per session, a single generator per node
    draws the *merged* arrival schedule of its session population (see
    :class:`repro.workloads.aggregate.AggregateArrivals`), synthesizes each
    firing session's next operation deterministically (SHA-256-folded
    session ids feeding the usual key distributions and txn steering), and
    submits through the fused submit fast path. In-flight contexts share the
    session's op-id-keyed dict. Arrivals are pre-submitted one batch at a
    time — one simulator "pump" event per ``batch`` operations instead of
    one arrival event per operation.

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

    Crash handling mirrors the per-session sessions: a generator bound to a
    crashed node *pauses* (no arrivals are drawn while it is down) and
    resumes from the recovery instant on RECOVER — it does not accumulate a
    backlog to burst-replay. In closed mode, sessions whose rechain was
    skipped during the outage re-enter as a fresh arrival wave.
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
        rng: Optional[SeededRNG] = None,
    ) -> None:
        super().__init__(client_id, cluster, workload, replica_id, history, request_latency)
        self.sessions = sessions
        self._batch = batch
        self._schedule = schedule
        self._cursor = 0
        self._record_agg_cb = self._record_agg
        self._started = False
        # Pump events carry a version token: a RECOVER restart bumps the
        # version so a pre-crash pump event still sitting in the queue
        # cannot double-drive the arrival stream.
        self._pump_version = 0
        # Closed mode: sessions whose rechain was skipped because the bound
        # node was down; re-entered as a wave on RECOVER.
        self._parked = 0
        self._txn_sessions: Dict[int, int] = {}
        if schedule is not None:
            self.max_ops = len(schedule)
            self._mode = "scripted"
            self._agg: Optional[AggregateWorkload] = None
            self._arrivals: Optional[AggregateArrivals] = None
            self._wave_remaining = 0
        else:
            self.max_ops = max_ops
            if rng is None:
                rng = SeededRNG(workload.seed).child(f"aggregated-node-{client_id}")
            if rate is not None and rate > 0:
                self._mode = "open"
                aggregate_rate = float(rate)
                self._wave_remaining = max_ops
            elif think_time > 0:
                self._mode = "closed"
                aggregate_rate = sessions / think_time
                self._wave_remaining = min(sessions, max_ops)
            else:
                raise WorkloadError(
                    "AggregatedClient needs a positive rate (open loop) or a "
                    "positive think_time (closed loop)"
                )
            self._agg = AggregateWorkload(workload)
            self._arrivals = AggregateArrivals(
                sessions=sessions,
                aggregate_rate=aggregate_rate,
                rng=rng,
                session_base=session_base,
                request_latency=request_latency,
                jitter=CLIENT_LATENCY_JITTER,
                think_time=think_time,
            )
        cluster.on_recover(self.replica_id, self._node_recovered)

    @property
    def done(self) -> bool:
        """Whether every budgeted operation has completed."""
        return self.completed >= self.max_ops

    @property
    def inflight(self) -> int:
        """Operations currently pre-submitted or in service."""
        return len(self._inflight)

    def start(self) -> None:
        """Begin pumping arrivals (idempotent)."""
        if self._started:
            return
        self._started = True
        self._sim.call_soon(self._pump, self._pump_version)

    # ------------------------------------------------------------- the pump
    def _pump(self, version: int) -> None:
        if version != self._pump_version:
            return  # superseded by a RECOVER restart
        if self._schedule is not None:
            self._pump_scripted(version)
            return
        remaining = self._wave_remaining
        if remaining <= 0:
            return
        if self._txn_node().crashed:
            # Pause with no backlog: nothing is drawn while the node is
            # down; _node_recovered restarts the pump from the recovery
            # instant (closed mode re-enters the rest of the wave there).
            self._stalled = True
            return
        count = min(self._batch, remaining)
        assert self._arrivals is not None and self._agg is not None
        entries = self._arrivals.draw(self._sim._now, count)
        synthesize = self._agg.next_operation
        for issue_time, request_lat, response_lat, session in entries:
            self._submit_entry(
                issue_time, request_lat, response_lat, synthesize(session), session
            )
        self._wave_remaining = remaining - count
        if self._wave_remaining > 0:
            # One engine event per batch: the next batch is drawn when the
            # simulation reaches this batch's last arrival.
            self._sim.schedule_at(entries[-1][0], self._pump, version)

    def _pump_scripted(self, version: int) -> None:
        schedule = self._schedule
        assert schedule is not None
        cursor = self._cursor
        total = len(schedule)
        if cursor >= total:
            return
        if self._txn_node().crashed:
            self._stalled = True
            return
        end = min(cursor + self._batch, total)
        now = self._sim._now
        for issue_time, request_lat, response_lat, op in schedule[cursor:end]:
            if issue_time < now:
                issue_time = now  # resuming after a crash window: replay late
            self._submit_entry(issue_time, request_lat, response_lat, op, op.client_id)
        self._cursor = end
        if end < total:
            self._sim.schedule_at(max(schedule[end - 1][0], now), self._pump, version)

    # ---------------------------------------------------------- issue/record
    def _submit_entry(
        self,
        issue_time: float,
        request_lat: float,
        response_lat: float,
        op,
        session: int,
    ) -> None:
        if op.__class__ is Transaction:
            # Transactions ride the existing 2PC hand-off (which draws its
            # own jitter, like every other client model); remember the
            # firing session so a closed-loop completion can rechain it.
            self._txn_sessions[op.txn_id] = session
            self._issue_txn(op, issue_time)
            return
        self.issued += 1
        if self.history is not None:
            self.history.invoke(op, issue_time)
        replica = self._replica_for(op)
        if replica.crashed:
            self._stalled = True
            self._parked += 1
            return  # dropped at the node; see ClientSession._issue
        self._inflight[op.op_id] = (issue_time, response_lat, self._epoch, session)
        arrival = issue_time + request_lat
        if arrival > self._sim._now:
            replica.submit_at(arrival, op, self._record_agg_cb)
        else:
            replica.submit(op, self._record_agg_cb)

    def _record_agg(self, op: Operation, status: OpStatus, value: Value) -> None:
        start, response_lat, epoch, session = self._inflight_pop(op.op_id)
        end = self._sim._now + response_lat
        if self.history is not None:
            self.history.respond(op, end, status, value)
        self.completed += 1
        if status is OpStatus.ABORTED:
            self.aborted += 1
        self._results_append(
            OperationResult(
                op=op,
                status=status,
                value=value,
                start_time=start,
                end_time=end,
                served_by=self.replica_id,
            )
        )
        if self._mode == "closed" and epoch == self._epoch and self.issued < self.max_ops:
            self._rechain(session, end)

    def _record_txn(self, txn: Transaction, outcome: TxnOutcome) -> None:
        session = self._txn_sessions.pop(txn.txn_id, None)
        ctx = self._txn_inflight.get(txn.txn_id)
        epoch_ok = ctx is not None and ctx[2] == self._epoch
        response_lat = ctx[1] if ctx is not None else 0.0
        super()._record_txn(txn, outcome)
        if (
            self._mode == "closed"
            and epoch_ok
            and session is not None
            and self.issued < self.max_ops
        ):
            self._rechain(session, self._sim._now + response_lat)

    def _rechain(self, session: int, completion_time: float) -> None:
        assert self._arrivals is not None and self._agg is not None
        issue_time, request_lat, response_lat = self._arrivals.rechain(
            completion_time, session
        )[:3]
        self._submit_entry(
            issue_time,
            request_lat,
            response_lat,
            self._agg.next_operation(session),
            session,
        )

    # -------------------------------------------------------- crash/recovery
    def _node_recovered(self, node_id: NodeId) -> None:
        """Resume pumping after the bound node recovers from a crash.

        The epoch bump (as in the per-session models) keeps completions of
        pre-crash operations from rechaining into a restarted stream; the
        pump-version bump retires any pre-crash pump event still queued.
        """
        self._epoch += 1
        if not self._started:
            return
        self._pump_version += 1
        self._stalled = False
        if self._mode == "closed":
            self._wave_remaining += self._parked
            self._parked = 0
        self._sim.call_soon(self._pump, self._pump_version)


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
        client.start()  # type: ignore[attr-defined]
    try:
        return cluster.run_until(
            lambda: all(getattr(c, "done", True) for c in clients),
            check_interval=check_interval,
            max_time=max_time,
        )
    except SimulationDeadlock:
        if not allow_incomplete:
            raise
        return cluster.sim.now
