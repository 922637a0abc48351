"""The Hermes replica: full protocol implementation (paper §3).

A :class:`HermesReplica` plays both protocol roles simultaneously — it is a
*coordinator* for updates submitted to it by clients and a *follower* for
updates coordinated by its peers. The implementation follows the paper's
transition rules:

* reads are served locally iff the key is Valid (§3.2 Reads);
* writes invalidate all live replicas, commit once every live replica has
  acknowledged, then validate (CTS/CINV/CACK/CVAL and FINV/FACK/FVAL);
* concurrent writes to the same key never abort: logical timestamps order
  them at every replica (§3.1);
* RMWs are conflicting and may abort (§3.6);
* message loss and node failures are handled with INV retransmissions and
  safely replayable writes driven by the mlt timer (§3.4);
* membership reconfiguration (m-update) unblocks writes waiting on failed
  nodes and replays pending RMWs (§3.4, §3.6 CRMW-replay).

Optimizations O1 (skip unnecessary VALs), O2 (virtual node ids) and O3
(broadcast ACKs to cut follower blocking latency) are configurable through
:class:`~repro.core.config.HermesConfig`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.config import HermesConfig
from repro.core.messages import Ack, Inv, Val
from repro.core.pending import PendingUpdate, StalledRequest
from repro.core.state import HermesRecord, KeyState
from repro.core.timestamps import Timestamp, VirtualNodeIds
from repro.membership.view import MembershipView
from repro.protocols.base import (
    ClientCallback,
    ProtocolFeatures,
    ReplicaNode,
    register_protocol,
)
from repro.types import Key, NodeId, Operation, OpStatus, OpType, Value

#: ``base.get``'s default on the read fast path: the key is not preloaded.
_ABSENT: Any = object()


class HermesReplica(ReplicaNode):
    """A replica running the Hermes protocol."""

    def __init__(self, *args: Any, hermes_config: Optional[HermesConfig] = None, **kwargs: Any):
        self.hermes_config = hermes_config or HermesConfig()
        self.hermes_config.validate()
        kwargs.setdefault("config", self.hermes_config.replica)
        super().__init__(*args, **kwargs)
        self._vids = VirtualNodeIds(
            node_id=self.node_id,
            num_nodes=max(self.view.size, self.node_id + 1),
            ids_per_node=self.hermes_config.virtual_ids_per_node,
        )
        #: Updates this replica is currently coordinating, keyed by key.
        self._pending: Dict[Key, PendingUpdate] = {}
        #: Client requests parked on a non-Valid key, keyed by key.
        self._stalled: Dict[Key, List[StalledRequest]] = {}
        #: Optimization O3 bookkeeping: acks observed per (key, timestamp).
        self._observed_acks: Dict[Tuple[Key, Timestamp], Set[NodeId]] = {}
        #: Recycled per-update ACK sets. Every update allocates one set and
        #: discards it microseconds later at commit; recycling the cleared
        #: sets removes that churn from the per-write hot path.
        self._ack_set_pool: List[Set[NodeId]] = []
        # Bound store-dict access once: _record() runs for every read, INV,
        # ACK and VAL (the store's record dict is never reassigned). A miss
        # means the key is either untouched in the preloaded base (Valid at
        # timestamp zero) or absent.
        self._records_get = self.store._records.get
        # Expected-acker cache, invalidated by view-object identity.
        self._ackers_view: Optional[MembershipView] = None
        self._ackers_cache: Set[NodeId] = set()
        # Flattened per-message constants (config is fixed for the run).
        self._broadcast_acks = self.hermes_config.broadcast_acks
        self._mlt = self.hermes_config.mlt
        self._ack_size = Ack(
            key=0, ts=Timestamp.ZERO, epoch_id=0, acker=0, key_size=self.config.key_size
        ).size_bytes
        self._val_size = Val(
            key=0, ts=Timestamp.ZERO, epoch_id=0, key_size=self.config.key_size
        ).size_bytes
        # Statistics exposed to the analysis layer and tests.
        self.writes_committed = 0
        self.rmws_committed = 0
        self.rmws_aborted = 0
        self.replays_started = 0
        self.inv_retransmissions = 0
        self.vals_skipped = 0
        self.epoch_drops = 0
        self.stall_events = 0

    # ------------------------------------------------------------- features
    @classmethod
    def features(cls) -> ProtocolFeatures:
        """Hermes' row of the paper's Table 2."""
        return ProtocolFeatures(
            name="Hermes",
            consistency="linearizable",
            local_reads=True,
            leases="one per RM",
            inter_key_concurrent_writes=True,
            decentralized_writes=True,
            write_latency_rtt="1",
        )

    # ------------------------------------------------------------ client ops
    def handle_client_op(self, op: Operation, callback: ClientCallback) -> None:
        """Dispatch a client read / write / RMW."""
        if op.op_type is OpType.READ:
            # Inlined read fast path: local reads dominate most
            # workloads and this dispatch runs once per operation. A key
            # no write has touched has no record and is Valid by
            # definition: it is served from the shared preloaded base
            # without allocating one.
            record = self._records_get(op.key)
            if record is None:
                value = self.store.base.get(op.key, _ABSENT)
                if value is _ABSENT:
                    value = self._record(op.key).value
            elif record.state is KeyState.VALID:
                value = record.value
            else:
                self._stall(op, callback, record)
                return
            self.reads_served_locally += 1
            self.ops_completed += 1
            callback(op, OpStatus.OK, value)
        elif op.op_type is OpType.WRITE:
            self._handle_write(op, callback)
        elif op.op_type is OpType.RMW:
            self._handle_rmw(op, callback)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unsupported operation type {op.op_type}")

    def _handle_write(self, op: Operation, callback: ClientCallback) -> None:
        record = self._record(op.key)
        if record.state is not KeyState.VALID or op.key in self._pending:
            self._stall(op, callback, record)
            return
        self._start_update(op.key, op.payload, is_rmw=False, op=op, callback=callback)

    def _handle_rmw(self, op: Operation, callback: ClientCallback) -> None:
        if not self.hermes_config.enable_rmw:
            # Without RMW support the operation degrades to a plain write.
            self._handle_write(op, callback)
            return
        record = self._record(op.key)
        if record.state is not KeyState.VALID or op.key in self._pending:
            self._stall(op, callback, record)
            return
        if op.compare is not None and record.value != op.compare:
            # Compare failed: linearizable read of the current value, no update.
            self.reads_served_locally += 1
            self.complete(op, callback, OpStatus.OK, record.value)
            return
        self._start_update(op.key, op.payload, is_rmw=True, op=op, callback=callback)

    # ------------------------------------------------------ coordinator side
    def _start_update(
        self,
        key: Key,
        value: Value,
        is_rmw: bool,
        op: Optional[Operation],
        callback: Optional[ClientCallback],
    ) -> None:
        """CTS + CINV: assign a timestamp, invalidate all replicas."""
        record = self._record(key)
        increment = (
            self.hermes_config.rmw_version_increment
            if is_rmw
            else self.hermes_config.write_version_increment
        )
        ts = record.timestamp.increment(cid=self._vids.pick(), by=increment)
        record.value = value
        record.timestamp = ts
        record.rmw_flag = is_rmw
        record.transition(KeyState.WRITE)
        pool = self._ack_set_pool
        pending = PendingUpdate(
            key=key,
            ts=ts,
            value=value,
            is_rmw=is_rmw,
            is_replay=False,
            op=op,
            callback=callback,
            acks=pool.pop() if pool else set(),
        )
        self._pending[key] = pending
        self._broadcast_inv(pending)

    def _start_replay(self, key: Key) -> None:
        """Take on the coordinator role to replay an incomplete write (§3.4)."""
        record = self._record(key)
        if key in self._pending or record.state is not KeyState.INVALID:
            return
        record.transition(KeyState.REPLAY)
        pool = self._ack_set_pool
        pending = PendingUpdate(
            key=key,
            ts=record.timestamp,
            value=record.value,
            is_rmw=record.rmw_flag,
            is_replay=True,
            acks=pool.pop() if pool else set(),
        )
        self._pending[key] = pending
        self.replays_started += 1
        self._broadcast_inv(pending)

    def _broadcast_inv(self, pending: PendingUpdate) -> None:
        """Broadcast the INV for a pending update and arm the mlt timer."""
        pending.inv_broadcasts += 1
        inv = Inv(
            key=pending.key,
            ts=pending.ts,
            epoch_id=self.view.epoch_id,
            value=pending.value,
            rmw_flag=pending.is_rmw,
            key_size=self.config.key_size,
            value_size=self.value_size_of(pending.value),
        )
        self.transport.broadcast(self.peers(), inv, inv.size_bytes)
        pending.cancel_timer()
        pending.mlt_timer = self.set_timer(
            self._mlt, self._coordinator_mlt_expired, pending.key, pending.ts
        )
        # A single-replica membership (or one where everyone already acked)
        # commits immediately.
        self._maybe_commit(pending)

    def _coordinator_mlt_expired(self, key: Key, ts: Timestamp) -> None:
        """Suspect INV/ACK loss: retransmit the invalidation (§3.4)."""
        pending = self._pending.get(key)
        if pending is None or pending.ts != ts:
            return
        self.inv_retransmissions += 1
        self._broadcast_inv(pending)
        self.transport.flush()

    def _expected_ackers(self) -> Set[NodeId]:
        """Live replicas whose ACK is required before a commit."""
        view = self.view
        if view is not self._ackers_view:
            self._ackers_view = view
            self._ackers_cache = set(view.others(self.node_id))
        return self._ackers_cache

    def _maybe_commit(self, pending: PendingUpdate) -> None:
        """CACK + CVAL: commit once every live replica has acknowledged."""
        if not self._expected_ackers().issubset(pending.acks):
            return
        if self._pending.get(pending.key) is not pending:
            return
        del self._pending[pending.key]
        pending.cancel_timer()
        record = self._record(pending.key)

        if record.state is KeyState.TRANS:
            # A concurrent write with a higher timestamp superseded us; the
            # key stays invalid until that write's VAL arrives (or a replay).
            record.transition(KeyState.INVALID)
            skip_val = self.hermes_config.skip_unneeded_vals
            if skip_val:
                self.vals_skipped += 1
            # Requests parked while we were coordinating now wait on another
            # coordinator's VAL; arm a replay timer so a lost VAL cannot
            # stall them forever (§3.4).
            if self._stalled.get(pending.key):
                stalled = self._stalled[pending.key][0]
                if stalled.replay_timer is None or stalled.replay_timer.cancelled:
                    stalled.replay_timer = self.set_timer(
                        self.hermes_config.mlt,
                        self._follower_mlt_expired,
                        pending.key,
                        record.timestamp,
                    )
        elif record.state in (KeyState.WRITE, KeyState.REPLAY):
            record.transition(KeyState.VALID)
            skip_val = False
        else:
            # The key was already validated (e.g. our own write replayed and
            # validated by a peer); nothing further to broadcast.
            skip_val = True

        self._notify_client(pending, OpStatus.OK)
        if pending.is_rmw:
            self.rmws_committed += 1
        elif not pending.is_replay:
            self.writes_committed += 1

        if not skip_val:
            val = Val(
                key=pending.key,
                ts=pending.ts,
                epoch_id=self.view.epoch_id,
                key_size=self.config.key_size,
            )
            self.transport.broadcast(self.peers(), val, self._val_size)
        self._release_acks(pending)
        self._drain_stalled(pending.key)

    def _notify_client(self, pending: PendingUpdate, status: OpStatus) -> None:
        if pending.op is None or pending.callback is None or pending.client_notified:
            return
        pending.client_notified = True
        self.complete(pending.op, pending.callback, status, pending.value)

    def _abort_rmw(self, pending: PendingUpdate) -> None:
        """CRMW-abort: a concurrent higher-timestamped update wins (§3.6)."""
        if self._pending.get(pending.key) is pending:
            del self._pending[pending.key]
        pending.cancel_timer()
        self.rmws_aborted += 1
        self._notify_client(pending, OpStatus.ABORTED)
        self._release_acks(pending)

    def _release_acks(self, pending: PendingUpdate) -> None:
        """Return a finished update's ACK set to the reuse pool.

        Called exactly once per update, at one of the three exits of the
        coordinator role: local commit, RMW abort, or a peer's replay
        completing our in-flight update (VAL while in Write/Replay).
        """
        acks = pending.acks
        acks.clear()
        self._ack_set_pool.append(acks)

    # -------------------------------------------------------- follower side
    def _on_inv(self, src: NodeId, inv: Inv) -> None:
        if inv.epoch_id != self.view.epoch_id:
            self.epoch_drops += 1
            return
        record = self._record(inv.key)
        pending = self._pending.get(inv.key)

        # FRMW-ACK: an RMW invalidation that is older than our local state is
        # answered with an INV describing the local state instead of an ACK.
        if inv.rmw_flag and inv.ts < record.timestamp:
            reply = Inv(
                key=inv.key,
                ts=record.timestamp,
                epoch_id=self.view.epoch_id,
                value=record.value,
                rmw_flag=record.rmw_flag,
                key_size=self.config.key_size,
                value_size=self.value_size_of(record.value),
            )
            self.transport.send(src, reply, reply.size_bytes)
            return

        if inv.ts > record.timestamp:
            # FINV: adopt the newer value and timestamp, move to Invalid
            # (Trans if we were coordinating our own update for this key).
            # Invalid and Trans stay where they are.
            record.value = inv.value
            record.timestamp = inv.ts
            record.rmw_flag = inv.rmw_flag
            if record.state in (KeyState.WRITE, KeyState.REPLAY):
                record.transition(KeyState.TRANS)
                if pending is not None:
                    pending.superseded = True
                    if pending.is_rmw:
                        self._abort_rmw(pending)
            elif record.state is KeyState.VALID:
                record.transition(KeyState.INVALID)

        # FACK: always acknowledge with the message's timestamp.
        ack = Ack(inv.key, inv.ts, self.view.epoch_id, self.node_id, self.config.key_size)
        if self._broadcast_acks:
            self.transport.broadcast(self.peers(), ack, self._ack_size)
            self._record_observed_ack(inv.key, inv.ts, self.node_id)
        else:
            self.transport.send(src, ack, self._ack_size)

    def _on_ack(self, src: NodeId, ack: Ack) -> None:
        if ack.epoch_id != self.view.epoch_id:
            self.epoch_drops += 1
            return
        acker = ack.acker if ack.acker >= 0 else src
        if self._broadcast_acks:
            self._record_observed_ack(ack.key, ack.ts, acker)
        pending = self._pending.get(ack.key)
        if pending is None or ack.ts != pending.ts:
            return
        pending.acks.add(acker)
        self._maybe_commit(pending)

    def _on_val(self, src: NodeId, val: Val) -> None:
        if val.epoch_id != self.view.epoch_id:
            self.epoch_drops += 1
            return
        record = self._record(val.key)
        if val.ts != record.timestamp:
            # Stale or reordered validation; ignore (FVAL rule).
            return
        if record.state in (KeyState.INVALID, KeyState.TRANS):
            record.transition(KeyState.VALID)
            self._observed_acks.pop((val.key, val.ts), None)
            self._drain_stalled(val.key)
        elif record.state in (KeyState.WRITE, KeyState.REPLAY):
            # Another replica replayed our in-flight update to completion.
            pending = self._pending.get(val.key)
            record.transition(KeyState.VALID)
            if pending is not None and pending.ts == val.ts:
                del self._pending[val.key]
                pending.cancel_timer()
                self._notify_client(pending, OpStatus.OK)
                self._release_acks(pending)
            self._drain_stalled(val.key)

    # -------------------------------------------------- optimization O3 path
    def _record_observed_ack(self, key: Key, ts: Timestamp, acker: NodeId) -> None:
        """Track broadcast ACKs so followers can validate before the VAL."""
        kt = (key, ts)
        observed = self._observed_acks
        acks = observed.get(kt)
        if acks is None:
            acks = observed[kt] = set()
        acks.add(acker)
        record = self._records_get(key)
        if record is None or record.timestamp != ts or record.state is not KeyState.INVALID:
            return
        coordinator = self._vids.owner_of(ts.cid)
        # required = members − {coordinator} ⊆ acks, spelled without the
        # two set allocations the subset test used to pay per ACK.
        for member in self.view.members:
            if member != coordinator and member not in acks:
                return
        record.transition(KeyState.VALID)
        observed.pop(kt, None)
        self._drain_stalled(key)

    # ------------------------------------------------------ stalled requests
    def _stall(self, op: Operation, callback: ClientCallback, record: HermesRecord) -> None:
        """Park a request on a non-Valid key; arm the replay timer if Invalid."""
        stalled = StalledRequest(op=op, callback=callback, stalled_at=self.sim.now)
        self._stalled.setdefault(op.key, []).append(stalled)
        self.stall_events += 1
        if record.state is KeyState.INVALID:
            stalled.replay_timer = self.set_timer(
                self.hermes_config.mlt, self._follower_mlt_expired, op.key, record.timestamp
            )

    def _follower_mlt_expired(self, key: Key, ts_at_stall: Timestamp) -> None:
        """Suspect a lost VAL: trigger a write replay if nothing changed (§3.4)."""
        record = self._records_get(key)
        if record is None or key not in self._stalled:
            return
        if record.state is KeyState.INVALID and record.timestamp == ts_at_stall:
            self._start_replay(key)
        elif record.state is KeyState.INVALID:
            # The timestamp moved on (a newer write invalidated us again);
            # re-arm the timer against the new timestamp.
            for stalled in self._stalled.get(key, ()):
                if stalled.replay_timer is None or stalled.replay_timer.cancelled:
                    stalled.replay_timer = self.set_timer(
                        self.hermes_config.mlt, self._follower_mlt_expired, key, record.timestamp
                    )
                    break
        self.transport.flush()

    def _drain_stalled(self, key: Key) -> None:
        """Re-examine requests parked on ``key`` after a state change."""
        if key not in self._stalled:
            return
        record = self._records_get(key)
        if record is None or record.state is not KeyState.VALID:
            return
        waiting = self._stalled.pop(key, None)
        if not waiting:
            return
        for stalled in waiting:
            stalled.cancel_timer()
        for stalled in waiting:
            self.handle_client_op(stalled.op, stalled.callback)

    # --------------------------------------------------- membership changes
    def on_view_change(self, view: MembershipView) -> None:
        """React to an m-update: unblock or replay pending updates (§3.4, §3.6)."""
        for pending in list(self._pending.values()):
            if pending.is_rmw:
                # CRMW-replay: reset gathered ACKs and re-invalidate to make
                # sure the RMW is not conflicting in the new configuration.
                pending.acks.clear()
                self._broadcast_inv(pending)
            else:
                # Failed nodes are no longer expected to ACK; commit if the
                # remaining live replicas have all acknowledged.
                self._maybe_commit(pending)
        self.transport.flush()

    # ------------------------------------------------- join state transfer
    def export_join_snapshot(self) -> list:
        """Snapshot this replica's state for a (re)joining node.

        Entries are ``(key, value, ts_version, ts_cid, valid, rmw_flag)``
        tuples in sorted key order (determinism). The logical timestamp is
        what lets the joiner merge safely: it adopts an entry only when it
        is newer than what it already replicated as a post-install follower.
        """
        entries = []
        for key in sorted(self.store.keys()):
            record = self._records_get(key)
            if record is None:
                entries.append((key, self.store.get(key), 0, 0, True, False))
            else:
                entries.append(
                    (
                        key,
                        record.value,
                        record.timestamp.version,
                        record.timestamp.cid,
                        record.state is KeyState.VALID,
                        record.rmw_flag,
                    )
                )
        return entries

    def apply_join_snapshot(self, entries: list) -> None:
        """Merge a join snapshot into local state (timestamp-guarded).

        For each entry: adopt the snapshot value when its timestamp is
        strictly newer than ours; on an equal timestamp, only promote an
        Invalid key to Valid when the source had validated it (its VAL was
        lost to us while we were down). Never regress state we replicated
        after the re-admitting view installed — concurrent writes reach us
        through the normal INV/VAL path with higher timestamps. Entries
        adopted as Invalid (the source had an in-flight write) heal like
        any lost VAL: a read stalling on them arms the replay timer.
        """
        for key, value, version, cid, valid, rmw_flag in entries:
            snap_ts = Timestamp(version=version, cid=cid)
            record = self._record(key)
            if snap_ts > record.timestamp:
                record.value = value
                record.timestamp = snap_ts
                record.rmw_flag = rmw_flag
                record.transition(KeyState.VALID if valid else KeyState.INVALID)
                if valid:
                    self._drain_stalled(key)
            elif (
                snap_ts == record.timestamp
                and valid
                and record.state is KeyState.INVALID
            ):
                record.transition(KeyState.VALID)
                self._drain_stalled(key)

    # -------------------------------------------------------------- helpers
    def _record(self, key: Key) -> HermesRecord:
        """Fetch the record of a key, creating it on first touch.

        First use of a base key copies its value; an absent key starts
        empty. Either way the new record is Valid at timestamp zero.
        """
        record = self._records_get(key)
        if record is None:
            record = self.store.record(key)
        return record

    def key_state(self, key: Key) -> KeyState:
        """Protocol state of ``key`` at this replica (Valid for unknown keys)."""
        record = self._records_get(key)
        return KeyState.VALID if record is None else record.state

    def key_timestamp(self, key: Key) -> Timestamp:
        """Highest timestamp this replica has observed for ``key``."""
        record = self._records_get(key)
        return Timestamp.ZERO if record is None else record.timestamp

    @property
    def pending_updates(self) -> int:
        """Number of updates this replica is currently coordinating."""
        return len(self._pending)

    @property
    def stalled_requests(self) -> int:
        """Number of client requests currently parked on non-Valid keys."""
        return sum(len(v) for v in self._stalled.values())

    RECORD = HermesRecord
    HANDLERS = {Inv: _on_inv, Ack: _on_ack, Val: _on_val}


register_protocol("hermes", HermesReplica)
