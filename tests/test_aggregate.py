"""Tests for the aggregated million-session client model.

Covers the generation layer (``repro.workloads.aggregate``), the
``AggregatedClient`` in-flight store and crash handling, spec validation,
statistical equivalence against the per-session open-loop model at matched
offered load, identity-neutral cell seeding, and determinism across worker
counts.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace

import pytest

from repro.bench.harness import (
    ExperimentSpec,
    aggregated_sessions,
    build_workload,
    run_experiment,
)
from repro.bench.runner import derive_cell_seed, run_specs
from repro.cluster.client import AggregatedClient, run_clients
from repro.cluster.failures import FailureEvent, FailureInjector
from repro.errors import BenchmarkError, WorkloadError
from repro.sim.rng import SeededRNG
from repro.types import OpType, Transaction
from repro.verification.history import History
from repro.workloads.aggregate import (
    AggregateArrivals,
    AggregateWorkload,
    fold_session,
    materialize_open_schedule,
    split_sessions,
)
from repro.workloads.distributions import ZipfianKeys
from repro.workloads.generator import WorkloadMix
from tests.conftest import make_cluster, small_workload


# ------------------------------------------------------------------ folding
def test_fold_session_is_deterministic_and_version_stable():
    assert fold_session(7, 731_204) == fold_session(7, 731_204)
    # Pinned value: the fold must never drift (no hash(), no platform salt).
    for seed, session in ((7, 731_204), (0, 0), (-3, 2**40)):
        payload = repr((seed, session, "agg-session")).encode("ascii")
        expected = int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")
        assert fold_session(seed, session) == expected


def test_fold_session_separates_adjacent_sessions_and_seeds():
    folds = {fold_session(1, s) for s in range(1000)}
    assert len(folds) == 1000
    assert fold_session(1, 5) != fold_session(2, 5)


def test_session_independent_of_population_size():
    """Session 42 draws the same ops whether it is one of 10^3 or 10^6."""
    mix_small = WorkloadMix.uniform(500, write_ratio=0.3, seed=9)
    mix_large = WorkloadMix.uniform(500, write_ratio=0.3, seed=9)
    small = AggregateWorkload(mix_small)
    large = AggregateWorkload(mix_large)
    # Interleave other sessions in the large population; session 42's
    # stream must be unaffected (folded, not shared-state).
    ops_small = [small.next_operation(42) for _ in range(20)]
    ops_large = []
    for i in range(20):
        large.next_operation(900_000 + i)
        ops_large.append(large.next_operation(42))
    assert [(o.op_type, o.key, o.payload) for o in ops_small] == [
        (o.op_type, o.key, o.payload) for o in ops_large
    ]


class _NoMemo(dict):
    """A fold memo that never remembers: every op folds its session afresh."""

    def get(self, key, default=None):
        return default

    def __setitem__(self, key, value):
        pass


def _signature(op):
    if isinstance(op, Transaction):
        return tuple(_signature(member) for member in op.ops)
    return (op.op_type, op.key, op.payload, op.client_id)


def _mixed_workload() -> WorkloadMix:
    return WorkloadMix.uniform(
        400, write_ratio=0.3, rmw_ratio=0.3, txn_fraction=0.1, txn_num_shards=2, seed=17
    )


@pytest.mark.parametrize("sessions", [10, 1_000_000])
def test_memoized_folds_match_a_fresh_fold_per_op(sessions):
    """Skipping the memo on a session's first firing changes no op: the
    stream equals one that calls ``fold_session`` for every op, for a
    repeat-heavy population and for a one-shot-heavy one."""
    picks = random.Random(sessions)
    firing = [picks.randrange(sessions) for _ in range(5_000)]
    memoized = AggregateWorkload(_mixed_workload())
    reference = AggregateWorkload(_mixed_workload())
    reference._folds = _NoMemo()
    assert [_signature(memoized.next_operation(s)) for s in firing] == [
        _signature(reference.next_operation(s)) for s in firing
    ]


def test_fold_memo_holds_only_sessions_that_fired_twice():
    arrivals = AggregateArrivals(
        sessions=1_000_000, aggregate_rate=2e6, rng=SeededRNG(5).child("memo")
    )
    aggregate = AggregateWorkload(WorkloadMix.uniform(1000, write_ratio=0.05, seed=5))
    for entry in arrivals.draw(0.0, 20_000):
        aggregate.next_operation(entry[3])
    repeated = {s for s, fired in aggregate._op_index.items() if fired >= 2}
    assert repeated  # ~200 birthday collisions among 20k picks of 10^6
    assert set(aggregate._folds) == repeated
    assert len(aggregate._op_index) > 50 * len(aggregate._folds)


# ------------------------------------------------------------ session stream
def test_session_stream_op_windows_are_disjoint():
    """A multi-draw op never bleeds into the next op's draws."""
    from repro.workloads.aggregate import SessionStream

    fold = fold_session(3, 17)
    stream = SessionStream()
    stream.reset(fold, 0)
    # Burn far more draws than any transaction performs.
    for _ in range(200):
        value = stream.random()
        assert 0.0 <= value < 1.0
    stream.reset(fold, 1)
    first_of_op1 = stream.random()
    fresh = SessionStream()
    fresh.reset(fold, 1)
    assert fresh.random() == first_of_op1


def test_session_stream_distinct_ops_draw_distinct_values():
    from repro.workloads.aggregate import SessionStream

    fold = fold_session(3, 17)
    stream = SessionStream()
    seen = set()
    for op_index in range(100):
        stream.reset(fold, op_index)
        seen.add(stream.random())
    assert len(seen) == 100


# ------------------------------------------------------------ in-flight store
def test_aggregated_inflight_counts_outstanding_ops_and_drains():
    """``inflight`` counts pre-submitted and in-service operations."""
    cluster = make_cluster("hermes", 3)
    workload = small_workload(write_ratio=0.2, num_keys=50, seed=13)
    client = AggregatedClient(
        client_id=0,
        cluster=cluster,
        workload=workload,
        sessions=5000,
        max_ops=2000,
        rate=1e5,
        replica_id=0,
    )
    samples = []
    cluster.sim.schedule_at(
        5e-3, lambda: samples.append((client.inflight, client.issued - client.completed))
    )
    run_clients(cluster, [client], max_time=0.2)
    [(inflight, outstanding)] = samples
    assert inflight == outstanding > 0
    assert client.completed == 2000 and client.inflight == 0


@pytest.mark.parametrize(
    "mode", [{"rate": 1e5}, {"think_time": 2e-4}], ids=["open", "closed"]
)
def test_synthesis_state_is_released_once_the_budget_is_drawn(mode):
    """The generator drops its per-session dicts when no session can fire
    again; a later crash+recover of its node issues nothing."""
    cluster = make_cluster("hermes", 3)
    client = AggregatedClient(
        client_id=0,
        cluster=cluster,
        workload=small_workload(write_ratio=0.2, num_keys=50, seed=13),
        sessions=100,
        max_ops=1500,
        replica_id=0,
        **mode,
    )
    assert client._agg is not None
    run_clients(cluster, [client], max_time=0.5)
    assert client._agg is None
    assert client.issued == client.completed == 1500
    cluster.crash(0)
    cluster.recover(0)
    cluster.run(until=cluster.sim.now + 0.01)
    assert client.issued == client.completed == 1500
    assert client.inflight == 0


# ------------------------------------------------------------ split/arrivals
def test_split_sessions_partitions_exactly():
    assert split_sessions(10, 3) == [4, 3, 3]
    assert split_sessions(1_000_000, 64) == [15625] * 64
    assert sum(split_sessions(7, 5)) == 7


def test_aggregate_arrivals_are_sorted_and_in_range():
    arrivals = AggregateArrivals(
        sessions=1000,
        aggregate_rate=5e4,
        rng=SeededRNG(3).child("t"),
        session_base=100,
        request_latency=40e-6,
        jitter=0.1,
    )
    entries = arrivals.draw(0.0, 500)
    times = [e[0] for e in entries]
    assert times == sorted(times)
    assert all(100 <= e[3] < 1100 for e in entries)
    assert all(e[1] > 0 and e[2] > 0 for e in entries)


def test_aggregate_arrivals_validation():
    with pytest.raises(WorkloadError):
        AggregateArrivals(sessions=0, aggregate_rate=1.0, rng=SeededRNG(1))
    with pytest.raises(WorkloadError):
        AggregateArrivals(sessions=10, aggregate_rate=0.0, rng=SeededRNG(1))


def test_materialized_schedule_matches_live_draws():
    """Scripted replay (parallel shards) sees the exact live schedule."""
    mix = WorkloadMix.uniform(200, write_ratio=0.2, seed=5)
    schedule = materialize_open_schedule(
        mix,
        sessions=5000,
        total_ops=300,
        rate=1e5,
        rng=SeededRNG(1).child("aggregated-node-0"),
        request_latency=40e-6,
        jitter=0.1,
    )
    mix2 = WorkloadMix.uniform(200, write_ratio=0.2, seed=5)
    again = materialize_open_schedule(
        mix2,
        sessions=5000,
        total_ops=300,
        rate=1e5,
        rng=SeededRNG(1).child("aggregated-node-0"),
        request_latency=40e-6,
        jitter=0.1,
    )
    assert [(t, rq, rs, op.op_type, op.key, op.client_id) for t, rq, rs, op in schedule] == [
        (t, rq, rs, op.op_type, op.key, op.client_id) for t, rq, rs, op in again
    ]


# ---------------------------------------------------------- spec validation
def test_sessions_knob_requires_aggregated_model():
    spec = ExperimentSpec(client_model="closed", sessions=100)
    with pytest.raises(BenchmarkError, match="sessions knob"):
        run_experiment(spec)


def test_aggregated_needs_load_or_think_time():
    spec = ExperimentSpec(client_model="aggregated", sessions=100)
    with pytest.raises(BenchmarkError, match="offered_load"):
        run_experiment(spec)


def test_parallel_closed_aggregated_rejected():
    spec = ExperimentSpec(
        client_model="aggregated",
        sessions=100,
        session_think_time=1e-3,
        shards=2,
        shard_mode="parallel",
    )
    with pytest.raises(BenchmarkError, match="open-loop aggregated"):
        run_experiment(spec)


def test_aggregated_sessions_defaults_to_per_session_population():
    spec = ExperimentSpec(num_replicas=5, clients_per_replica=3)
    assert aggregated_sessions(spec) == 15
    assert aggregated_sessions(replace(spec, sessions=1_000_000)) == 1_000_000


# -------------------------------------------------- identity-neutral seeding
def test_new_fields_are_identity_neutral_at_defaults():
    """Adding sessions/session_think_time must not re-seed old baselines."""
    from repro.bench.runner import _IDENTITY_NEUTRAL_DEFAULTS

    assert _IDENTITY_NEUTRAL_DEFAULTS["sessions"] == 0
    assert _IDENTITY_NEUTRAL_DEFAULTS["session_think_time"] == 0.0
    spec = ExperimentSpec()
    excluded = {"seed", *_IDENTITY_NEUTRAL_DEFAULTS}
    identity = sorted(
        (name, repr(value))
        for name, value in vars(spec).items()
        if name not in excluded
    )
    payload = repr((identity, 1)).encode("utf-8")
    legacy = int.from_bytes(hashlib.sha256(payload).digest()[:4], "big") % (2**31 - 1) + 1
    assert derive_cell_seed(spec, 1) == legacy
    # Non-default values do perturb the seed (new cells get fresh streams).
    assert derive_cell_seed(replace(spec, sessions=1000), 1) != legacy
    assert derive_cell_seed(replace(spec, session_think_time=1e-3), 1) != legacy


# ------------------------------------------------------------- end-to-end
def _agg_spec(**overrides) -> ExperimentSpec:
    base = ExperimentSpec(
        protocol="hermes",
        num_replicas=3,
        num_keys=300,
        clients_per_replica=4,
        ops_per_client=100,
        client_model="aggregated",
        sessions=10_000,
        offered_load=2e5,
        record_history=True,
        seed=11,
    )
    return replace(base, **overrides)


def test_aggregated_open_loop_completes_budget():
    result = run_experiment(_agg_spec())
    assert len(result.results) == 3 * 4 * 100
    assert result.history is not None
    from repro.verification import check_all

    report = check_all(
        result.history, initial_values=build_workload(_agg_spec()).initial_dataset()
    )
    assert report.ok, report.summary()


def test_aggregated_closed_loop_completes_budget():
    spec = _agg_spec(offered_load=None, session_think_time=1e-3)
    result = run_experiment(spec)
    assert len(result.results) == 3 * 4 * 100


def test_matched_offered_load_agrees_with_per_session_open_loop():
    """At matched offered load the aggregated model and the per-session
    open-loop model deliver statistically equivalent runs: same op budget
    completed, throughput within tolerance."""
    load = 2e5
    per_session = ExperimentSpec(
        protocol="hermes",
        num_replicas=3,
        num_keys=300,
        clients_per_replica=4,
        ops_per_client=100,
        client_model="open",
        offered_load=load,
        seed=11,
    )
    aggregated = replace(
        per_session, client_model="aggregated", sessions=10_000
    )
    base = run_experiment(per_session)
    agg = run_experiment(aggregated)
    assert len(agg.results) == len(base.results)
    assert agg.throughput == pytest.approx(base.throughput, rel=0.25)


def test_zipfian_head_ranks_match_per_session_model():
    """The aggregated synthesis sees the same zipfian head ordering as the
    per-session generator (ranks, not exact counts)."""
    samples = 40_000

    def head(keys):
        counts = {}
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
        ranked = sorted(counts, key=lambda k: (-counts[k], k))
        return ranked[:5]

    mix_a = WorkloadMix(
        distribution=ZipfianKeys(1000, exponent=0.99), write_ratio=0.0, seed=21
    )
    agg = AggregateWorkload(mix_a)
    agg_keys = [agg.next_operation(i % 2000).key for i in range(samples)]

    mix_b = WorkloadMix(
        distribution=ZipfianKeys(1000, exponent=0.99), write_ratio=0.0, seed=22
    )
    per_session_keys = [mix_b.next_operation(i % 16).key for i in range(samples)]
    assert head(agg_keys) == head(per_session_keys)


def test_parallel_aggregated_deterministic_across_jobs():
    spec = _agg_spec(shards=4, shard_mode="parallel", num_keys=400)
    serial = run_specs([spec], jobs=1)[0]
    parallel = run_specs([spec], jobs=2)[0]
    assert serial.duration == parallel.duration
    assert serial.throughput == parallel.throughput
    assert serial.overall_latency.median == parallel.overall_latency.median
    assert serial.overall_latency.p99 == parallel.overall_latency.p99
    assert serial.cluster_stats == parallel.cluster_stats


# ---------------------------------------------------------- crash/recovery
def test_aggregated_generator_pauses_on_crash_and_resumes_without_backlog():
    """Figure-9-style schedule: crash the generator's node mid-run, recover
    later. The generator must stop drawing during the outage (no backlog
    burst) and resume from the recovery instant."""
    cluster = make_cluster("hermes", 3)
    workload = small_workload(write_ratio=0.2, num_keys=50, seed=13)
    history = History()
    client = AggregatedClient(
        client_id=0,
        cluster=cluster,
        workload=workload,
        sessions=5000,
        max_ops=4000,
        rate=1e5,
        replica_id=0,
        history=history,
    )
    crash_at, recover_at = 0.010, 0.020
    FailureInjector(
        cluster,
        [FailureEvent.crash(crash_at, 0), FailureEvent.recover(recover_at, 0)],
    ).arm()
    issued_samples = {}

    def probe(label):
        issued_samples[label] = client.issued

    # Sample issue counters inside and after the crash window.
    cluster.sim.schedule_at(crash_at + 1e-3, probe, "early-outage")
    cluster.sim.schedule_at(recover_at - 1e-4, probe, "late-outage")
    cluster.sim.schedule_at(recover_at + 5e-3, probe, "after-recover")
    run_clients(cluster, [client], max_time=0.2, allow_incomplete=True)
    # No draws during the outage...
    assert issued_samples["early-outage"] == issued_samples["late-outage"]
    # ...and the stream resumed after RECOVER.
    assert issued_samples["after-recover"] > issued_samples["late-outage"]
    assert client.issued > issued_samples["late-outage"]


def test_aggregated_closed_loop_survives_crash_recover_cycle():
    spec = _agg_spec(
        offered_load=None,
        session_think_time=2e-4,
        sessions=1000,
        allow_incomplete=True,
        max_sim_time=0.5,
        faults=(
            FailureEvent.crash(0.002, 0),
            FailureEvent.recover(0.004, 0),
        ),
    )
    result = run_experiment(spec)
    # The run makes progress through and beyond the fault window: the pump
    # restarts on RECOVER and the surviving sessions keep rechaining.
    completed = len(result.results)
    assert completed > 0
    budget = spec.num_replicas * spec.clients_per_replica * spec.ops_per_client
    assert completed >= budget * 0.5
