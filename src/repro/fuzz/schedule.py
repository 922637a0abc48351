"""Seed-derived random fault schedules.

A :class:`FuzzSchedule` is the fuzzer's unit of work: one smoke-scale
experiment cell (protocol, replication degree, shard count, workload mix)
plus an explicit list of scheduled faults and planned live migrations.
:func:`generate_schedule` draws every choice from one ``random.Random(seed)``
stream, so a schedule is a pure function of its seed — a one-line seed is a
complete repro — while the *explicit* event list is what the shrinker edits
(deleting an event must not reshuffle the others, which re-deriving from the
seed would do).

Schedules are generated under liveness-preserving constraints — at most a
minority of replicas down at once, partitions always healed, the membership
service kept on the majority side — so that surviving runs terminate and a
checker violation means a safety bug, not a wedged cluster.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.bench.harness import ExperimentSpec
from repro.cluster.failures import FailureEvent
from repro.errors import ConfigurationError
from repro.membership.detector import FailureDetectorConfig
from repro.membership.service import MembershipConfig, PlannedMigration
from repro.membership.view import ShardMigration

#: Fault kinds :func:`generate_schedule` samples from by default. The first
#: two are fail-stop faults (with paired recover/heal events); the last
#: three are the gray-failure kinds.
DEFAULT_FAULT_KINDS = ("crash", "partition", "slow_link", "slow_node", "clock_skew")


def fuzz_membership_config(autoscale: bool = False) -> MembershipConfig:
    """Fast-detection membership settings for smoke-scale fuzz trials.

    The service defaults (150 ms detection timeout — the paper's Figure 9
    setting) are far longer than an entire smoke run; these values make
    crash detection, lease-based view changes and migrations land inside
    the trial so the fuzzer actually exercises them. With ``autoscale`` the
    elastic-resharding policy loop rides along (see
    :func:`fuzz_autoscale_config`) together with node rejoin, so recovered
    nodes re-enter mid-trial and policy-driven migrations interleave with
    the scheduled faults (:meth:`FuzzSchedule.to_spec` drops the rejoin on
    protocols without a join state snapshot).
    """
    return MembershipConfig(
        lease_duration=5e-3,
        renewal_interval=1e-3,
        detection=FailureDetectorConfig(ping_interval=1e-3, detection_timeout=8e-3),
        rejoin=autoscale,
        join_timeout=6e-3,
        join_retry_interval=2e-3,
        autoscale=fuzz_autoscale_config() if autoscale else None,
    )


def fuzz_autoscale_config():
    """Aggressive autoscale settings sized to smoke-scale fuzz trials.

    The threshold sits just above 1 so ordinary per-shard jitter (and any
    skew a fault induces) triggers rounds within a trial's few dozen
    milliseconds — the fuzzer wants the freeze/copy/flip machinery racing
    the scheduled faults, not a realistic production policy.
    """
    from repro.cluster.autoscale import AutoscaleConfig

    return AutoscaleConfig(
        interval=0.3e-3,
        window_ticks=2,
        imbalance_threshold=1.05,
        min_ops_per_window=5,
        cooldown=1e-3,
        max_rounds=4,
        seed=0,
    )


@dataclass(frozen=True)
class FuzzConfig:
    """Bounds of the schedule space :func:`generate_schedule` samples.

    Attributes:
        protocols: Protocol registry names to draw from. The default set
            is the linearizable protocols with view-change support; ``zab``
            is excluded because its local reads are sequentially consistent
            by design and would trip the linearizability oracle.
        replica_counts: Replication degrees to draw from.
        shard_counts: Shard counts to draw from (sharded cells may also
            plan a live migration).
        write_ratios: Workload write ratios to draw from.
        txn_fractions: Transaction fractions to draw from (applied only to
            ``hermes`` cells, the protocol the 2PC layer is exercised on).
        fault_kinds: Fault kinds to sample (see :data:`DEFAULT_FAULT_KINDS`).
            Directed campaigns narrow this, e.g. ``("slow_link",)``.
        num_keys: Key-space size. Small on purpose: contention is what
            makes histories discriminating.
        clients_per_replica: Closed-loop sessions bound to each replica.
        ops_per_client: Operations issued by each session.
        min_faults: Minimum fault slots per schedule.
        max_faults: Maximum fault slots per schedule (paired recover/heal
            events come on top).
        horizon: Simulated time window faults are scheduled within. The
            default matches the smoke cell's fault-free duration (a few
            hundred microseconds) so faults land mid-run; crashes and
            partitions then stretch the run across the detection timeout
            and the resulting view change.
        recovery_horizon: Window for paired recover/heal events. It spans
            both sides of the fuzz detection timeout (8 ms), so schedules
            cover recovery-before-detection races as well as full
            evict-and-rejoin view changes.
        max_latency_factor: Upper bound of the slow-link latency multiplier.
        max_link_loss: Upper bound of the per-link extra loss rate.
        max_link_duplicate: Upper bound of the per-link duplication rate
            (the flaky-NIC gray failure — late duplicates are what stale
            write-down guards must absorb).
        max_duplicate_delay: Upper bound of the per-duplicate extra delay
            window in seconds. Sized to span per-key write interarrival
            times at smoke scale, so a duplicate can land *after* a newer
            write to the same key.
        max_cpu_factor: Upper bound of the slow-node CPU cost multiplier.
        max_clock_skew: Largest single clock-offset step in seconds.
        clock_skew_bound: Clamp applied to every skew event — the bounded
            loosely-synchronized-clocks assumption, kept well under the
            fuzz lease duration so leases stay sound.
        migration_probability: Chance a sharded cell plans one migration.
        autoscale_probability: Chance a sharded cell runs the elastic
            resharding policy alongside its faults (plus node rejoin on
            Hermes cells).
            Default 0 — the standard campaign's schedules stay exactly as
            before; the nightly campaign's dedicated cell turns it on.
        max_sim_time: Safety cap on simulated seconds per trial.
    """

    protocols: Sequence[str] = ("hermes", "cr", "craq")
    replica_counts: Sequence[int] = (3, 5)
    shard_counts: Sequence[int] = (1, 2)
    write_ratios: Sequence[float] = (0.3, 0.9)
    txn_fractions: Sequence[float] = (0.0, 0.2)
    fault_kinds: Sequence[str] = DEFAULT_FAULT_KINDS
    num_keys: int = 24
    clients_per_replica: int = 2
    ops_per_client: int = 30
    min_faults: int = 1
    max_faults: int = 5
    horizon: float = 0.3e-3
    recovery_horizon: float = 12e-3
    max_latency_factor: float = 12.0
    max_link_loss: float = 0.2
    max_link_duplicate: float = 0.2
    max_duplicate_delay: float = 2e-3
    max_cpu_factor: float = 6.0
    max_clock_skew: float = 0.5e-3
    clock_skew_bound: float = 1e-3
    migration_probability: float = 0.5
    autoscale_probability: float = 0.0
    max_sim_time: float = 0.050

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` for invalid settings."""
        if not self.protocols:
            raise ConfigurationError("fuzz config needs at least one protocol")
        if not 0.0 <= self.autoscale_probability <= 1.0:
            raise ConfigurationError("autoscale_probability must lie in [0, 1]")
        unknown = sorted(set(self.fault_kinds) - set(DEFAULT_FAULT_KINDS))
        if unknown:
            raise ConfigurationError(f"unknown fault kinds: {unknown}")
        if self.min_faults < 0 or self.max_faults < self.min_faults:
            raise ConfigurationError("need 0 <= min_faults <= max_faults")
        if self.horizon <= 0 or self.recovery_horizon <= self.horizon:
            raise ConfigurationError("need 0 < horizon < recovery_horizon")
        if min(self.replica_counts, default=0) < 3:
            raise ConfigurationError("fuzz trials need >= 3 replicas")


@dataclass
class FuzzSchedule:
    """One fuzz trial: an experiment cell plus explicit fault/migration lists.

    The cell's scale parameters are stored on the schedule (not looked up
    from a :class:`FuzzConfig`) so a serialized corpus entry replays
    identically even if the generator's defaults later change.
    """

    seed: int
    protocol: str
    num_replicas: int
    shards: int
    write_ratio: float
    txn_fraction: float
    num_keys: int
    clients_per_replica: int
    ops_per_client: int
    max_sim_time: float
    events: List[FailureEvent] = field(default_factory=list)
    migrations: List[PlannedMigration] = field(default_factory=list)
    #: Run the elastic resharding policy (and, on Hermes, node rejoin)
    #: during the trial. Only meaningful on sharded cells; ignored when
    #: ``shards < 2``.
    autoscale: bool = False

    def to_spec(self) -> ExperimentSpec:
        """The :class:`ExperimentSpec` that runs this schedule.

        History recording and the membership service are always on — the
        checkers need the history, and view changes are part of the fault
        model under test. ``allow_incomplete`` is on too: a schedule may
        legally wedge a client forever (crash without recovery, a dropped
        message on a protocol without retransmissions), so trials are
        bounded runs judged on whatever completed.

        Autoscale cells run the zipfian workload (the paper's 0.99 skew):
        uniform load never crosses the policy's imbalance threshold, and a
        policy that never fires would leave the autoscale × faults product
        space untested. Node rejoin rides along on Hermes cells only, the
        one protocol that exports the join state snapshot.
        """
        autoscale = self.autoscale and self.shards >= 2
        membership = fuzz_membership_config(autoscale=autoscale)
        if self.protocol != "hermes":
            membership.rejoin = False
        return ExperimentSpec(
            protocol=self.protocol,
            num_replicas=self.num_replicas,
            write_ratio=self.write_ratio,
            num_keys=self.num_keys,
            value_size=16,
            clients_per_replica=self.clients_per_replica,
            ops_per_client=self.ops_per_client,
            shards=self.shards,
            shard_mode="coupled",
            txn_fraction=self.txn_fraction,
            txn_keys=2,
            txn_cross_shard=0.5 if self.shards > 1 else 0.0,
            seed=self.seed,
            record_history=True,
            max_sim_time=self.max_sim_time,
            label=f"fuzz-{self.seed}",
            faults=tuple(self.events),
            migrations=tuple(self.migrations),
            membership=membership,
            zipfian_exponent=0.99 if autoscale else None,
            allow_incomplete=True,
        )

    def describe(self) -> str:
        """One-line summary for campaign logs."""
        kinds = ",".join(sorted({event.kind.value for event in self.events})) or "none"
        migration = f" +{len(self.migrations)} migration(s)" if self.migrations else ""
        autoscale = " +autoscale" if self.autoscale else ""
        return (
            f"seed={self.seed} {self.protocol} n={self.num_replicas} "
            f"shards={self.shards} wr={self.write_ratio} txn={self.txn_fraction} "
            f"faults=[{kinds}]{migration}{autoscale}"
        )


def derive_trial_seed(root_seed: int, index: int) -> int:
    """A stable per-trial seed from a campaign's root seed.

    SHA-256 mixing (the :func:`repro.bench.runner.derive_cell_seed` idiom)
    keeps trials decorrelated and the derivation identical in any process
    layout, so ``(root_seed, index)`` is a complete repro line.
    """
    payload = repr((root_seed, index, "fuzz-trial")).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:4], "big") % (2**31 - 1) + 1


def generate_schedule(seed: int, config: Optional[FuzzConfig] = None) -> FuzzSchedule:
    """Generate the fault schedule deterministically derived from ``seed``.

    Fault times are drawn first and sorted, so the generator walks the
    schedule in time order and can maintain liveness constraints exactly:
    at most a minority of replicas down at any instant, one partition
    window at a time (always healed), and the membership service placed in
    the majority group of every partition.
    """
    config = config or FuzzConfig()
    config.validate()
    rng = random.Random(seed)
    protocol = rng.choice(list(config.protocols))
    num_replicas = rng.choice(list(config.replica_counts))
    shards = rng.choice(list(config.shard_counts))
    write_ratio = rng.choice(list(config.write_ratios))
    txn_fraction = rng.choice(list(config.txn_fractions)) if protocol == "hermes" else 0.0

    nodes = list(range(num_replicas))
    max_down = (num_replicas - 1) // 2
    down_until: Dict[int, float] = {}
    partition_until = -1.0
    events: List[FailureEvent] = []

    num_faults = rng.randint(config.min_faults, config.max_faults)
    times = sorted(
        round(rng.uniform(config.horizon / 10, config.horizon), 6) for _ in range(num_faults)
    )
    for time in times:
        kind = rng.choice(list(config.fault_kinds))
        # Recover/heal window spanning both sides of the detection timeout;
        # in-run window for un-degrading gray faults.
        follow_up = round(time + rng.uniform(config.horizon / 2, config.recovery_horizon), 6)
        undo_time = round(time + rng.uniform(config.horizon / 4, config.horizon), 6)
        if kind == "crash":
            live = [n for n in nodes if down_until.get(n, -1.0) <= time]
            currently_down = num_replicas - len(live)
            if currently_down >= max_down or not live:
                continue
            node = rng.choice(live)
            events.append(FailureEvent.crash(time, node))
            if rng.random() < 0.6:
                events.append(FailureEvent.recover(follow_up, node))
                down_until[node] = follow_up
            else:
                down_until[node] = float("inf")
        elif kind == "partition":
            if time <= partition_until or num_replicas < 3:
                continue
            shuffled = nodes[:]
            rng.shuffle(shuffled)
            minority_size = rng.randint(1, max(1, max_down))
            minority = sorted(shuffled[:minority_size])
            majority = sorted(shuffled[minority_size:])
            majority.append(fuzz_membership_config().service_node_id)
            events.append(FailureEvent.partition(time, majority, minority))
            events.append(FailureEvent.heal(follow_up))
            partition_until = follow_up
        elif kind == "slow_link":
            node, peer = rng.sample(nodes, 2)
            factor = round(rng.uniform(2.0, config.max_latency_factor), 2)
            loss = round(rng.uniform(0.0, config.max_link_loss), 3)
            duplicate = round(rng.uniform(0.0, config.max_link_duplicate), 3)
            duplicate_delay = round(rng.uniform(0.0, config.max_duplicate_delay), 6)
            events.append(
                FailureEvent.slow_link(
                    time,
                    node,
                    peer,
                    latency_factor=factor,
                    loss_rate=loss,
                    duplicate_rate=duplicate,
                    duplicate_delay=duplicate_delay,
                )
            )
            if rng.random() < 0.5:
                events.append(FailureEvent.heal_link(undo_time, node, peer))
        elif kind == "slow_node":
            node = rng.choice(nodes)
            factor = round(rng.uniform(1.5, config.max_cpu_factor), 2)
            events.append(FailureEvent.slow_node(time, node, factor))
            if rng.random() < 0.5:
                events.append(FailureEvent.restore_node_speed(undo_time, node))
        else:  # clock_skew
            node = rng.choice(nodes)
            skew = round(rng.uniform(-config.max_clock_skew, config.max_clock_skew), 6)
            events.append(
                FailureEvent.clock_skew(time, node, skew, bound=config.clock_skew_bound)
            )

    migrations: List[PlannedMigration] = []
    if shards >= 2 and rng.random() < config.migration_probability:
        source, target = rng.sample(range(shards), 2)
        at_time = round(rng.uniform(config.horizon / 10, config.horizon), 6)
        migrations.append(
            PlannedMigration(at_time=at_time, migration=ShardMigration(source=source, target=target))
        )

    # Guarded draw: with the default probability of 0 no random number is
    # consumed, so every schedule a seed generated before this knob existed
    # is reproduced byte-for-byte.
    autoscale = False
    if shards >= 2 and config.autoscale_probability > 0:
        autoscale = rng.random() < config.autoscale_probability

    events.sort(key=lambda event: (event.time, event.kind.value))
    return FuzzSchedule(
        seed=seed,
        protocol=protocol,
        num_replicas=num_replicas,
        shards=shards,
        write_ratio=write_ratio,
        txn_fraction=txn_fraction,
        num_keys=config.num_keys,
        clients_per_replica=config.clients_per_replica,
        ops_per_client=config.ops_per_client,
        max_sim_time=config.max_sim_time,
        events=events,
        migrations=migrations,
        autoscale=autoscale,
    )
