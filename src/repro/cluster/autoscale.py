"""Elastic resharding under live load: the autoscale policy loop.

The PR 5 migration *mechanism* (freeze → copy → flip → release, driven by
the membership service) is policy-free: something has to decide *when* to
move *which* slice *where*. This module is that something — a small
reconfiguration-manager control loop co-hosted with the membership service
that watches per-shard load signals already flowing in the simulation and,
when one shard runs away from the rest, plans a slice with
:func:`repro.cluster.rebalance_plan.plan_migration` and hands it to
:meth:`~repro.membership.service.MembershipService.request_migration`.

Signals (sampled every ``interval`` of simulated time, summed over a
sliding window of ``window_ticks`` samples):

* **ops per shard** — deltas of each shard replica's ``ops_completed``
  counter, summed across nodes. The primary signal.
* **txn lock conflicts per shard** — deltas of each lock-master
  participant's ``conflicts`` counter, folded into the load score with
  ``txn_conflict_weight`` (a conflicted shard is hotter than its completed
  ops alone suggest).
* **per-node inbox queue depth** — instantaneous ``queue_depth`` of each
  node (its inbox length: work awaiting the CPU plus messages in flight to
  it), used to steer the *target* choice toward genuinely idle nodes.

Decision rule: a shard is *hot* when its windowed load exceeds
``imbalance_threshold`` times the mean shard load (and the cluster-wide
window saw at least ``min_ops_per_window`` operations — no acting on
noise). The coldest shard (smallest load, then shallowest home-node inbox,
then smallest id) receives half the hot shard's current slice.

Determinism rules (the whole point of running this in the simulator):

* time comes only from the service's simulated clock — ticks are
  ``set_timer`` events, windows are simulated-time spans, never wall clock;
* every signal is a counter or queue length read at a deterministic
  instant;
* ties among equally-hot shards break through a ``random.Random(seed)``
  stream owned by the policy, so runs are reproducible bit-for-bit and the
  tie-break is still not a structural bias toward low shard ids;
* rounds are rate-limited (``cooldown``) and serialized — the service
  refuses a migration while one is in flight (or a reconfiguration/join is
  running) and the policy simply re-evaluates on a later tick. A round
  cancelled by the service's migration watchdog is retried the same way:
  the load imbalance persists, so a later tick re-plans against the
  then-current chain.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from repro.cluster.rebalance_plan import plan_migration
from repro.errors import ConfigurationError
from repro.membership.view import ShardMigration

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.cluster.cluster import Cluster
    from repro.membership.service import MembershipService


@dataclass(slots=True)
class AutoscaleConfig:
    """Knobs of the load-watching resharding policy.

    Attributes:
        interval: Simulated seconds between load samples (one tick).
        window_ticks: Sliding-window length, in ticks, over which load
            deltas are computed. Decisions need ``window_ticks`` samples of
            history, so the first decision can happen at tick
            ``window_ticks + 1`` at the earliest.
        imbalance_threshold: A shard is hot when its windowed load exceeds
            this multiple of the mean shard load. Must be > 1.
        min_ops_per_window: Minimum cluster-wide windowed operations before
            any decision is taken (ignore start-up and idle noise).
        txn_conflict_weight: Weight of windowed lock-conflict counts in the
            load score (0 disables the signal).
        cooldown: Minimum simulated time between successfully started
            rounds (rate limit for back-to-back chaining).
        max_rounds: Hard cap on rounds started by this policy instance.
        seed: Seed of the tie-breaking stream.
    """

    interval: float = 10e-3
    window_ticks: int = 2
    imbalance_threshold: float = 1.5
    min_ops_per_window: int = 100
    txn_conflict_weight: float = 1.0
    cooldown: float = 20e-3
    max_rounds: int = 8
    seed: int = 0

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` for invalid settings."""
        if self.interval <= 0:
            raise ConfigurationError("autoscale interval must be positive")
        if self.window_ticks < 1:
            raise ConfigurationError("autoscale window_ticks must be >= 1")
        if self.imbalance_threshold <= 1.0:
            raise ConfigurationError(
                "autoscale imbalance_threshold must be > 1 (a shard at the "
                "mean is not hot)"
            )
        if self.min_ops_per_window < 0:
            raise ConfigurationError("autoscale min_ops_per_window must be >= 0")
        if self.txn_conflict_weight < 0:
            raise ConfigurationError("autoscale txn_conflict_weight must be >= 0")
        if self.cooldown < 0:
            raise ConfigurationError("autoscale cooldown must be >= 0")
        if self.max_rounds < 1:
            raise ConfigurationError("autoscale max_rounds must be >= 1")


@dataclass(slots=True)
class AutoscaleRound:
    """One migration round the policy started (for tests and figures)."""

    time: float
    migration: ShardMigration
    load: Dict[int, float]


class Autoscaler:
    """The control loop. One instance per cluster, ticking on the service.

    The autoscaler deliberately owns no network presence: it reads counters
    off the cluster's replicas and nodes (the simulation's observer surface
    — the real system would export the same counters to its
    reconfiguration manager) and acts only through the service's public
    :meth:`~repro.membership.service.MembershipService.request_migration`.
    """

    def __init__(
        self,
        cluster: "Cluster",
        service: "MembershipService",
        config: AutoscaleConfig,
    ) -> None:
        config.validate()
        # The counters' owners, not the cluster: this loop's ticks sit in the
        # cluster's event heap, so a reference to the cluster would be a
        # cycle through it, and dropping the cluster would not free the cell.
        self.shards = cluster.shards
        self.shard_replicas = cluster.shard_replicas
        self.nodes = cluster.nodes
        self.service = service
        self.config = config
        self._rng = random.Random(config.seed)
        #: Per-tick cumulative samples, newest last: (ops, conflicts) maps.
        self._history: Deque[Tuple[Dict[int, int], Dict[int, float]]] = deque(
            maxlen=config.window_ticks + 1
        )
        self._last_round_time: Optional[float] = None
        self.rounds: List[AutoscaleRound] = []
        self.rounds_started = 0
        self.skipped_busy = 0
        self.skipped_cooldown = 0
        self.skipped_balanced = 0
        self.skipped_unplannable = 0

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Arm the first sampling tick."""
        self.service.set_timer(self.config.interval, self._tick)

    # -------------------------------------------------------------- sampling
    def _sample(self) -> Tuple[Dict[int, int], Dict[int, float]]:
        """Read cumulative per-shard counters at this instant."""
        ops: Dict[int, int] = {s: 0 for s in range(self.shards)}
        conflicts: Dict[int, float] = {s: 0.0 for s in range(self.shards)}
        for (_, shard_id), replica in self.shard_replicas.items():
            ops[shard_id] += replica.ops_completed
            participant = replica._txn_participant
            if participant is not None:
                conflicts[shard_id] += participant.conflicts
        return ops, conflicts

    def _windowed_load(self) -> Optional[Dict[int, float]]:
        """Load score per shard over the sliding window, or ``None``."""
        if len(self._history) <= self.config.window_ticks:
            return None
        oldest_ops, oldest_conflicts = self._history[0]
        newest_ops, newest_conflicts = self._history[-1]
        weight = self.config.txn_conflict_weight
        return {
            shard: (newest_ops[shard] - oldest_ops[shard])
            + weight * (newest_conflicts[shard] - oldest_conflicts[shard])
            for shard in newest_ops
        }

    def home_node(self, shard: int) -> int:
        """The shard's home node: its role ring's head in the service's view."""
        return self.service.view.role_ring(shard)[0]

    # -------------------------------------------------------------- decision
    def _tick(self) -> None:
        self._history.append(self._sample())
        self._maybe_reshard()
        # Re-arm unconditionally: even when decisions are capped we keep
        # sampling so stats stay inspectable (ticks are cheap sim events).
        self.service.set_timer(self.config.interval, self._tick)

    def _maybe_reshard(self) -> None:
        load = self._windowed_load()
        if load is None:
            return
        if self.rounds_started >= self.config.max_rounds:
            return
        now = self.service.sim.now
        if (
            self._last_round_time is not None
            and now - self._last_round_time < self.config.cooldown
        ):
            self.skipped_cooldown += 1
            return
        total = sum(load.values())
        if total < self.config.min_ops_per_window:
            self.skipped_balanced += 1
            return
        mean = total / self.shards
        peak = max(load.values())
        if peak <= self.config.imbalance_threshold * mean:
            self.skipped_balanced += 1
            return
        hottest = [shard for shard in sorted(load) if load[shard] == peak]
        hot = hottest[0] if len(hottest) == 1 else self._rng.choice(hottest)
        nodes = self.nodes
        cold = min(
            (shard for shard in load if shard != hot),
            key=lambda shard: (load[shard], nodes[self.home_node(shard)].queue_depth, shard),
        )
        migration = plan_migration(
            hot,
            self.shards,
            prior=self.service._applied_migrations(),
            target=cold,
        )
        if migration is None:
            # The hot shard's routed slice is empty at this stride (every
            # residue already migrated away) — nothing left to split.
            self.skipped_unplannable += 1
            return
        if not self.service.request_migration(migration):
            self.skipped_busy += 1
            return
        self.rounds_started += 1
        self._last_round_time = now
        self.rounds.append(AutoscaleRound(time=now, migration=migration, load=dict(load)))
