"""Experiment runner shared by every benchmark.

An :class:`ExperimentSpec` fully describes one measurement point: protocol,
replication degree, workload (write ratio, key distribution, value size),
offered load (closed-loop clients) and duration (operations per client). The
runner builds the cluster, drives it, and reduces the recorded
:class:`~repro.types.Operation` records into an
:class:`ExperimentResult` with throughput and latency summaries.

Scaling: the paper's runs use one million keys and minutes of wall-clock
time; the simulated reproduction keeps the same *structure* but runs far
fewer operations by default so the full benchmark suite completes in
minutes. :class:`Scale` presets ("smoke", "default", "thorough") control the
sizes; absolute numbers change with scale, relative protocol behaviour does
not.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import random

from repro.analysis.stats import LatencySummary, latency_summary, throughput
from repro.cluster.client import (
    CLIENT_LATENCY_JITTER,
    DEFAULT_REQUEST_LATENCY,
    AggregatedClient,
    ClientSession,
    ClosedLoopClient,
    OpenLoopClient,
    run_clients,
)
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.failures import FailureEvent, FailureInjector
from repro.cluster.sharding import ShardRouter
from repro.core.config import HermesConfig
from repro.errors import BenchmarkError
from repro.membership.service import MembershipConfig, MigrationRecord, PlannedMigration
from repro.protocols.base import ReplicaConfig
from repro.protocols.derecho import DerechoConfig
from repro.sim.node import ServiceTimeModel
from repro.sim.rng import SeededRNG
from repro.types import Operation, OpType
from repro.verification.history import History
from repro.workloads.aggregate import (
    ScheduleEntry,
    materialize_open_schedule,
    split_sessions,
)
from repro.workloads.distributions import UniformKeys, ZipfianKeys
from repro.workloads.generator import ScriptedOps, WorkloadMix

#: Valid values of :attr:`ExperimentSpec.shard_mode`.
SHARD_MODES = ("coupled", "parallel")


@dataclass(frozen=True)
class Scale:
    """Run-size preset for experiments.

    Attributes:
        name: Preset name.
        num_keys: Size of the key space.
        clients_per_replica: Closed-loop sessions bound to each replica.
        ops_per_client: Operations issued by each session.
    """

    name: str
    num_keys: int
    clients_per_replica: int
    ops_per_client: int

    @classmethod
    def smoke(cls) -> "Scale":
        """Tiny runs for CI smoke tests (seconds)."""
        return cls("smoke", num_keys=500, clients_per_replica=4, ops_per_client=60)

    @classmethod
    def default(cls) -> "Scale":
        """The default benchmark size (a few minutes for the full suite)."""
        return cls("default", num_keys=4_000, clients_per_replica=10, ops_per_client=200)

    @classmethod
    def thorough(cls) -> "Scale":
        """Larger runs for tighter estimates."""
        return cls("thorough", num_keys=20_000, clients_per_replica=20, ops_per_client=600)


@dataclass
class ExperimentSpec:
    """One measurement point.

    Attributes:
        protocol: Protocol registry name.
        num_replicas: Replication degree.
        write_ratio: Fraction of updates in the workload.
        rmw_ratio: Fraction of updates that are RMWs.
        zipfian_exponent: ``None`` for uniform keys, otherwise the exponent.
        num_keys: Key-space size.
        value_size: Written value size in bytes.
        clients_per_replica: Client sessions per replica.
        ops_per_client: Operations per session.
        client_model: ``"closed"`` (one outstanding request per session),
            ``"open"`` (Poisson arrivals at a fixed offered load), or
            ``"aggregated"`` (one
            :class:`~repro.cluster.client.AggregatedClient` generator per
            node statistically standing in for ``sessions`` sessions —
            open loop when ``offered_load`` is set, closed loop with
            ``session_think_time`` otherwise).
        offered_load: Aggregate offered load in operations per simulated
            second, split evenly across all open-loop sessions (or across
            the per-node aggregated generators). Required when
            ``client_model == "open"``; ignored for closed loops.
        sessions: Synthetic session population for
            ``client_model == "aggregated"`` (split across the per-node
            generators). ``0`` — the identity-neutral default — falls back
            to ``num_replicas * clients_per_replica``, the population the
            per-session models simulate. The simulated *work* is bounded by
            ``clients_per_replica * ops_per_client`` operations per node
            regardless of the session count, which is what lets a smoke run
            model 10^6 users.
        session_think_time: Mean per-session think time in simulated
            seconds for closed-loop aggregated experiments (each completion
            rechains its session's next request one think time later).
            Ignored — and identity-neutral at ``0.0`` — for every other
            client model.
        shards: Number of key-range shards (independent protocol groups).
            ``1`` is the classic unsharded deployment.
        txn_fraction: Fraction of client requests that are multi-key
            transactions executed by the 2PC layer (:mod:`repro.cluster.txn`).
            ``0.0`` generates the classic single-op stream, byte-identical
            to pre-transaction workloads.
        txn_keys: Distinct keys per generated transaction.
        txn_cross_shard: Probability that a generated transaction spans at
            least two shards (requires ``shards > 1`` to have any effect).
            Cross-shard transactions run full two-phase commit;
            single-shard ones commit in one phase at the lock master.
        shard_mode: How shards execute. ``"coupled"`` hosts every shard on
            the same simulated nodes inside one simulation — shards share
            node CPU/NIC budgets like HermesKV threads share a machine.
            ``"parallel"`` runs fully independent shards (each a dedicated
            simulation over its key partition, replaying its slice of the
            unsharded request stream) and merges the metrics
            deterministically; the runner fans the shards out across worker
            processes.
        seed: Root seed.
        use_wings: Whether replicas use the Wings batching transport.
        worker_threads: Per-node worker threads (Figure 8 pins this to 1).
        hermes: Optional Hermes configuration override.
        derecho: Optional Derecho configuration override.
        record_history: Whether to record a linearizability-checkable history.
        max_sim_time: Safety cap on simulated seconds.
        label: Free-form label carried into the result.
        faults: Declarative fault schedule
            (:class:`~repro.cluster.failures.FailureEvent` records), armed
            through a :class:`~repro.cluster.failures.FailureInjector`
            before clients start. The empty default is identity-neutral:
            fault-free specs hash to the same cell seed as before the
            field existed.
        migrations: Planned live shard migrations
            (:class:`~repro.membership.service.PlannedMigration` records),
            driven by the membership service. Requires ``shards >= 2``.
        membership: Reliable-membership service configuration (crash
            detection, lease-based views, rejoin, autoscale). Setting it,
            or planning ``migrations``, starts the service; ``None`` — the
            identity-neutral default — runs without it. The fault-schedule
            fuzzer installs a fast-detection config so view changes land
            inside smoke-scale runs. Any ``migrations`` are merged in on top.
        allow_incomplete: Whether hitting ``max_sim_time`` with client
            operations still outstanding is a normal bounded run rather
            than a :class:`~repro.errors.SimulationDeadlock`. Fault
            schedules may legally wedge clients forever (see
            :func:`repro.cluster.client.run_clients`); the checkers judge
            whatever completed.
    """

    protocol: str = "hermes"
    num_replicas: int = 5
    write_ratio: float = 0.05
    rmw_ratio: float = 0.0
    zipfian_exponent: Optional[float] = None
    num_keys: int = 4_000
    value_size: int = 32
    clients_per_replica: int = 3
    ops_per_client: int = 220
    client_model: str = "closed"
    offered_load: Optional[float] = None
    sessions: int = 0
    session_think_time: float = 0.0
    shards: int = 1
    shard_mode: str = "coupled"
    txn_fraction: float = 0.0
    txn_keys: int = 2
    txn_cross_shard: float = 0.0
    seed: int = 1
    use_wings: bool = False
    worker_threads: int = 20
    hermes: Optional[HermesConfig] = None
    derecho: Optional[DerechoConfig] = None
    record_history: bool = False
    max_sim_time: float = 120.0
    label: str = ""
    faults: Sequence[FailureEvent] = ()
    migrations: Sequence[PlannedMigration] = ()
    membership: Optional[MembershipConfig] = None
    allow_incomplete: bool = False

    def validate(self) -> None:
        """Raise :class:`~repro.errors.BenchmarkError` for an invalid spec.

        The one check of how the spec's fields combine; the cluster it
        builds is validated separately by :meth:`ClusterConfig.validate`.
        """
        if self.ops_per_client < 1 or self.clients_per_replica < 1:
            raise BenchmarkError("experiment requires at least one client and one operation")
        if self.shards < 1:
            raise BenchmarkError("shards must be >= 1")
        if self.shard_mode not in SHARD_MODES:
            raise BenchmarkError(
                f"unknown shard_mode {self.shard_mode!r}; options: {SHARD_MODES}"
            )
        if self.client_model not in ("closed", "open", "aggregated"):
            raise BenchmarkError(
                f"unknown client_model {self.client_model!r}; "
                "options: 'closed', 'open', 'aggregated'"
            )
        if self.client_model == "aggregated":
            if self.sessions < 0:
                raise BenchmarkError("sessions must be >= 0")
            if not self.offered_load and self.session_think_time <= 0:
                raise BenchmarkError(
                    "aggregated experiments need an offered_load (open loop) or "
                    "a positive session_think_time (closed loop)"
                )
        elif self.sessions:
            raise BenchmarkError(
                "the sessions knob requires client_model='aggregated' "
                "(per-session models simulate num_replicas * clients_per_replica "
                "sessions)"
            )
        parallel = self.shards > 1 and self.shard_mode == "parallel"
        if parallel:
            aggregated_open = self.client_model == "aggregated" and bool(self.offered_load)
            if self.client_model != "closed" and not aggregated_open:
                raise BenchmarkError(
                    "parallel shard execution supports closed-loop clients and "
                    "open-loop aggregated generators only; use "
                    "shard_mode='coupled' for other sharded experiments"
                )
        if not 0.0 <= self.txn_fraction <= 1.0:
            raise BenchmarkError("txn_fraction must be within [0, 1]")
        if self.txn_fraction > 0 and parallel:
            raise BenchmarkError(
                "transactions require shard_mode='coupled': parallel shard "
                "execution runs shards as independent simulations, which cannot "
                "exchange cross-shard 2PC traffic"
            )
        if parallel and (self.faults or self.migrations or self.membership):
            raise BenchmarkError(
                "fault schedules, membership and migrations require "
                "shard_mode='coupled': parallel shard execution runs shards as "
                "independent simulations with disjoint failure domains"
            )
        if self.migrations and self.shards < 2:
            raise BenchmarkError("planned migrations require shards >= 2")
        if self.client_model == "open" and (not self.offered_load or self.offered_load <= 0):
            raise BenchmarkError("open-loop experiments require a positive offered_load")

    def with_scale(self, scale: Scale) -> "ExperimentSpec":
        """A copy of this spec resized to the given scale preset."""
        return replace(
            self,
            num_keys=scale.num_keys,
            clients_per_replica=scale.clients_per_replica,
            ops_per_client=scale.ops_per_client,
        )


@dataclass
class ExperimentResult:
    """Reduced results of one experiment run.

    Attributes:
        spec: The spec that produced the result.
        throughput: Steady-state completed operations per simulated second.
        overall_latency: Latency summary over all operations.
        read_latency: Latency summary over reads.
        write_latency: Latency summary over updates (writes + RMWs).
        duration: Simulated duration of the run in seconds.
        results: Raw per-operation results (for time series / custom stats).
        history: Recorded history when the spec requested one.
        cluster_stats: Selected protocol counters summed over replicas.
        migration_records: Completed live migrations of the run (empty
            unless the spec planned migrations); consumed by the
            migration-atomicity checker.
    """

    spec: ExperimentSpec
    throughput: float
    overall_latency: LatencySummary
    read_latency: LatencySummary
    write_latency: LatencySummary
    duration: float
    results: List[Operation] = field(default_factory=list)
    history: Optional[History] = None
    cluster_stats: Dict[str, int] = field(default_factory=dict)
    migration_records: List[MigrationRecord] = field(default_factory=list)


def build_cluster(spec: ExperimentSpec) -> Cluster:
    """Construct the cluster described by an experiment spec.

    Coupled shard mode builds the sharded cluster directly; parallel shard
    mode never reaches this function with ``shards > 1`` (each shard builds
    its own unsharded cluster, see :func:`run_shard_experiment`).
    """
    replica_config = ReplicaConfig(value_size=spec.value_size)
    hermes_config = spec.hermes or HermesConfig(replica=replica_config)
    hermes_config.replica = replica_config
    membership = spec.membership or MembershipConfig()
    if spec.migrations:
        membership = replace(membership, migrations=list(spec.migrations))
    config = ClusterConfig(
        protocol=spec.protocol,
        num_replicas=spec.num_replicas,
        shards=spec.shards if spec.shard_mode == "coupled" else 1,
        seed=spec.seed,
        replica=replica_config,
        hermes=hermes_config,
        derecho=spec.derecho or DerechoConfig(),
        use_wings=spec.use_wings,
        service_model=ServiceTimeModel(worker_threads=spec.worker_threads),
        run_membership_service=spec.membership is not None or bool(spec.migrations),
        membership=membership,
    )
    return Cluster(config)


def build_workload(spec: ExperimentSpec) -> WorkloadMix:
    """Construct the workload described by an experiment spec."""
    if spec.zipfian_exponent is None:
        distribution = UniformKeys(spec.num_keys)
    else:
        distribution = ZipfianKeys(spec.num_keys, exponent=spec.zipfian_exponent)
    return WorkloadMix(
        distribution=distribution,
        write_ratio=spec.write_ratio,
        rmw_ratio=spec.rmw_ratio,
        value_size=spec.value_size,
        seed=spec.seed,
        txn_fraction=spec.txn_fraction,
        txn_keys=spec.txn_keys,
        txn_cross_shard=spec.txn_cross_shard,
        txn_num_shards=spec.shards,
    )


def aggregated_sessions(spec: ExperimentSpec) -> int:
    """The synthetic session population of an aggregated-model spec."""
    return spec.sessions or spec.num_replicas * spec.clients_per_replica


def _aggregated_clients(
    spec: ExperimentSpec,
    cluster: Cluster,
    workload: WorkloadMix,
    history: Optional[History],
    schedules: Optional[List[List[ScheduleEntry]]] = None,
) -> List[ClientSession]:
    """One AggregatedClient generator per node, sessions split across them.

    The per-node operation budget matches the per-session models
    (``clients_per_replica * ops_per_client``), so matched-load comparisons
    against ``client_model="open"`` complete the same operation count. With
    ``schedules`` each generator replays its node's materialized schedule
    instead (parallel shard execution).
    """
    node_ids = cluster.node_ids
    session_counts = split_sessions(aggregated_sessions(spec), len(node_ids))
    clients: List[ClientSession] = []
    base = 0
    for index, node_id in enumerate(node_ids):
        clients.append(
            AggregatedClient(
                client_id=index,
                cluster=cluster,
                workload=workload,
                sessions=session_counts[index],
                max_ops=spec.clients_per_replica * spec.ops_per_client,
                rate=spec.offered_load / len(node_ids) if spec.offered_load else None,
                think_time=spec.session_think_time,
                replica_id=node_id,
                history=history,
                session_base=base,
                schedule=None if schedules is None else schedules[index],
            )
        )
        base += session_counts[index]
    return clients


def _session_slots(spec: ExperimentSpec, cluster: Cluster):
    """``(client_id, node_id)`` of every per-session client, in node order."""
    return enumerate(
        node_id for node_id in cluster.node_ids for _ in range(spec.clients_per_replica)
    )


def build_clients(
    spec: ExperimentSpec, cluster: Cluster, workload: WorkloadMix, history: Optional[History]
) -> List[ClientSession]:
    """Construct the client sessions described by an experiment spec."""
    spec.validate()
    if spec.client_model == "aggregated":
        return _aggregated_clients(spec, cluster, workload, history)
    if spec.client_model == "open":
        assert spec.offered_load  # validate(): open loops need a positive load
        rate = spec.offered_load / (spec.num_replicas * spec.clients_per_replica)
        return [
            OpenLoopClient(
                client_id=client_id,
                cluster=cluster,
                workload=workload,
                rate=rate,
                max_ops=spec.ops_per_client,
                replica_id=node_id,
                history=history,
                rng=random.Random((spec.seed * 1_000_003 + 7_919 * (client_id + 1)) & 0x7FFFFFFF),
            )
            for client_id, node_id in _session_slots(spec, cluster)
        ]
    return [
        ClosedLoopClient(
            client_id=client_id,
            cluster=cluster,
            workload=workload,
            max_ops=spec.ops_per_client,
            replica_id=node_id,
            history=history,
        )
        for client_id, node_id in _session_slots(spec, cluster)
    ]


def _summarize(
    spec: ExperimentSpec,
    results: List[Operation],
    duration: float,
    history: Optional[History],
    stats: Dict[str, int],
) -> ExperimentResult:
    """The one reduction from per-operation records to an ExperimentResult.

    Shared by unsharded runs, per-shard runs and the shard merge, so serial
    and process-parallel executions summarize identically by construction.
    """
    return ExperimentResult(
        spec=spec,
        throughput=throughput(results),
        overall_latency=latency_summary(results),
        read_latency=latency_summary(results, op_type=OpType.READ),
        write_latency=latency_summary(
            [r for r in results if r.op_type is not OpType.READ], op_type=None
        ),
        duration=duration,
        results=results,
        history=history,
        cluster_stats=stats,
    )


def _reduce_run(
    spec: ExperimentSpec,
    cluster: Cluster,
    clients: List[ClientSession],
    duration: float,
    history: Optional[History],
) -> ExperimentResult:
    """Reduce a finished run's client records into an ExperimentResult."""
    results: List[Operation] = []
    for client in clients:
        results.extend(client.results)

    stats = {
        "writes_committed": cluster.total_stat("writes_committed"),
        "reads_served_locally": cluster.total_stat("reads_served_locally"),
        "reads_served_remotely": cluster.total_stat("reads_served_remotely"),
        "replays_started": cluster.total_stat("replays_started"),
        "rmws_aborted": cluster.total_stat("rmws_aborted"),
        "inv_retransmissions": cluster.total_stat("inv_retransmissions"),
        "messages_sent": cluster.network.stats.messages_sent,
        "txns_committed": cluster.txn_stat("txns_committed"),
        "txns_aborted": cluster.txn_stat("txns_aborted"),
        "txns_timedout": cluster.txn_stat("txns_timedout"),
        "txns_cross_shard": cluster.txn_stat("txns_cross_shard"),
    }
    result = _summarize(spec, results, duration, history, stats)
    result.migration_records = list(cluster.migration_records)
    return result


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run one experiment end to end and reduce its results.

    A spec with ``shards > 1`` and ``shard_mode == "parallel"`` runs its
    shards as independent simulations (serially here; the runner distributes
    them over worker processes) and merges the metrics — the merged result
    is identical either way.
    """
    spec.validate()
    if spec.shards > 1 and spec.shard_mode == "parallel":
        parts = [run_shard_experiment(spec, shard) for shard in range(spec.shards)]
        return merge_shard_results(spec, parts)
    cluster = build_cluster(spec)
    workload = build_workload(spec)
    cluster.preload(workload.initial_dataset())

    if spec.faults:
        FailureInjector(cluster, spec.faults).arm()

    history = History() if spec.record_history else None
    clients = build_clients(spec, cluster, workload, history)

    duration = run_clients(
        cluster, clients, max_time=spec.max_sim_time, allow_incomplete=spec.allow_incomplete
    )
    return _reduce_run(spec, cluster, clients, duration, history)


# ------------------------------------------------------- sharded execution
def derive_shard_seed(spec: ExperimentSpec, shard: int) -> int:
    """A stable per-shard seed for process-parallel shard execution.

    Mixes the spec's seed with the shard index through SHA-256 so shard
    simulations decorrelate (network jitter, clock skew) while remaining
    reproducible in any process layout.
    """
    payload = repr((spec.seed, spec.shards, shard, "shard")).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:4], "big") % (2**31 - 1) + 1


def _aggregated_schedules(
    spec: ExperimentSpec, workload: WorkloadMix
) -> List[List[ScheduleEntry]]:
    """Materialize every generator's *unsharded* open-loop timed schedule.

    Seed derivation (one :class:`SeededRNG` child per node index) matches
    :class:`~repro.cluster.client.AggregatedClient` exactly, so a
    parallel-sharded run replays the very op stream — same times, keys,
    latencies — a coupled run of the same spec would draw live.
    """
    session_counts = split_sessions(aggregated_sessions(spec), spec.num_replicas)
    ops_budget = spec.clients_per_replica * spec.ops_per_client
    assert spec.offered_load  # validate(): parallel aggregated is open-loop
    rate_per_node = spec.offered_load / spec.num_replicas
    schedules: List[List[ScheduleEntry]] = []
    base = 0
    for index in range(spec.num_replicas):
        schedules.append(
            materialize_open_schedule(
                workload,
                sessions=session_counts[index],
                total_ops=ops_budget,
                rate=rate_per_node,
                rng=SeededRNG(spec.seed).child(f"aggregated-node-{index}"),
                session_base=base,
                request_latency=DEFAULT_REQUEST_LATENCY,
                jitter=CLIENT_LATENCY_JITTER,
            )
        )
        base += session_counts[index]
    return schedules


def run_shard_experiment(spec: ExperimentSpec, shard: int) -> ExperimentResult:
    """Run one shard of a parallel-sharded experiment as its own simulation.

    The shard gets a dedicated (unsharded) cluster over its key partition —
    the scale-out model where every shard owns its resources. Its clients
    replay exactly the operations of the *unsharded* request stream whose
    keys the shard owns, so per-shard runs compose: summed over shards, the
    operation stream is invariant under the shard count. Aggregated-model
    specs replay the generators' materialized timed schedules the same way.
    """
    spec.validate()
    router = ShardRouter(spec.shards)
    base_workload = build_workload(spec)
    total_sessions = spec.num_replicas * spec.clients_per_replica
    shard_of = router.shard_of
    aggregated = spec.client_model == "aggregated"
    if aggregated:
        shard_schedules = [
            [entry for entry in schedule if shard_of(entry[3].key) == shard]
            for schedule in _aggregated_schedules(spec, base_workload)
        ]
    else:
        scripts = {
            client_id: [
                op
                for op in base_workload.stream(client_id, spec.ops_per_client)
                if shard_of(op.key) == shard
            ]
            for client_id in range(total_sessions)
        }
    shard_seed = derive_shard_seed(spec, shard)
    sub_spec = replace(spec, seed=shard_seed, shards=1, shard_mode="coupled")
    cluster = build_cluster(sub_spec)
    dataset = {
        key: value
        for key, value in base_workload.initial_dataset().items()
        if shard_of(key) == shard
    }
    cluster.preload(dataset)

    history = History() if spec.record_history else None
    clients: List[ClientSession]
    if aggregated:
        clients = _aggregated_clients(spec, cluster, base_workload, history, shard_schedules)
    else:
        scripted = ScriptedOps(scripts, seed=shard_seed)
        clients = [
            ClosedLoopClient(
                client_id=client_id,
                cluster=cluster,
                workload=scripted,
                max_ops=scripted.ops_for(client_id),
                replica_id=node_id,
                history=history,
            )
            for client_id, node_id in _session_slots(spec, cluster)
        ]

    duration = run_clients(cluster, clients, max_time=spec.max_sim_time)
    return _reduce_run(sub_spec, cluster, clients, duration, history)


def merge_shard_results(
    spec: ExperimentSpec, parts: Sequence[ExperimentResult]
) -> ExperimentResult:
    """Deterministically merge per-shard results into one ExperimentResult.

    Shards run concurrently on dedicated resources, so their simulated
    timelines overlap from time zero: throughput and latency summaries are
    computed over the union of the per-operation records, the duration is
    the slowest shard's, and protocol counters sum. The merge depends only
    on the parts (in shard order), never on which process produced them.
    """
    results: List[Operation] = []
    for part in parts:
        results.extend(part.results)
    history: Optional[History] = None
    if spec.record_history:
        history = History()
        for part in parts:
            if part.history is not None:
                history.absorb(part.history)
    stats: Dict[str, int] = {}
    for part in parts:
        for name, value in part.cluster_stats.items():
            stats[name] = stats.get(name, 0) + value
    return _summarize(
        spec,
        results,
        max((part.duration for part in parts), default=0.0),
        history,
        stats,
    )
