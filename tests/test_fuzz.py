"""Fault-schedule fuzzing: schedules, trials, the shrinker and gray faults."""

from __future__ import annotations

import pytest

import repro.fuzz.__main__ as fuzz_cli
import repro.fuzz.campaign as campaign
import repro.protocols.chain as chain
from repro.cluster.failures import FailureEvent, FailureInjector
from repro.errors import ConfigurationError
from repro.fuzz import (
    FuzzConfig,
    FuzzSchedule,
    TrialOutcome,
    derive_trial_seed,
    generate_schedule,
    is_one_minimal,
    load_schedule,
    run_campaign,
    run_trial,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
    select_corpus,
    shrink_schedule,
)
from repro.membership.service import PlannedMigration
from repro.membership.view import ShardMigration
from tests.conftest import make_cluster

#: Directed schedule space for the chain-protocol gray-failure tests: CR
#: only, flaky/slow links only. Seed 1012561607 (campaign 4242, trial 17)
#: is the known repro for the stale write-down bug when the version guard
#: is disabled.
CR_SLOW_LINK = FuzzConfig(protocols=("cr",), fault_kinds=("slow_link",), min_faults=1, max_faults=3)
CR_BUG_SEED = 1012561607


# ---------------------------------------------------------------- schedules
def test_schedule_is_pure_function_of_seed():
    first = generate_schedule(12345)
    second = generate_schedule(12345)
    assert schedule_to_dict(first) == schedule_to_dict(second)


def test_different_seeds_give_different_schedules():
    dicts = [repr(schedule_to_dict(generate_schedule(seed))) for seed in range(50, 60)]
    assert len(set(dicts)) > 1


def test_schedules_preserve_liveness_margins():
    for seed in range(100, 140):
        schedule = generate_schedule(seed)
        crashes = [e for e in schedule.events if e.kind.value == "crash"]
        recovers = {e.node for e in schedule.events if e.kind.value == "recover"}
        never_recovered = [e for e in crashes if e.node not in recovers]
        assert len(never_recovered) <= (schedule.num_replicas - 1) // 2
        partitions = [e for e in schedule.events if e.kind.value == "partition"]
        heals = [e for e in schedule.events if e.kind.value == "heal_partition"]
        assert len(partitions) == len(heals)
        for event in partitions:
            majority = max(event.groups, key=len)
            # The membership service rides with the majority, never isolated.
            assert any(node >= 10_000 for node in majority)


def test_derive_trial_seed_is_stable_and_decorrelated():
    assert derive_trial_seed(1, 0) == derive_trial_seed(1, 0)
    seeds = {derive_trial_seed(1, index) for index in range(100)}
    assert len(seeds) == 100
    assert all(1 <= seed < 2**31 for seed in seeds)


def test_fuzz_config_validation():
    with pytest.raises(ConfigurationError):
        FuzzConfig(protocols=()).validate()
    with pytest.raises(ConfigurationError):
        FuzzConfig(fault_kinds=("crash", "meteor")).validate()
    with pytest.raises(ConfigurationError):
        FuzzConfig(min_faults=4, max_faults=2).validate()
    with pytest.raises(ConfigurationError):
        FuzzConfig(replica_counts=(2,)).validate()
    with pytest.raises(ConfigurationError):
        FuzzConfig(horizon=1e-3, recovery_horizon=1e-3).validate()


# ------------------------------------------------------------ serialization
def test_schedule_round_trips_through_json(tmp_path):
    config = FuzzConfig(shard_counts=(2,), migration_probability=1.0)
    schedule = generate_schedule(777, config)
    assert schedule.migrations, "seed must exercise the migration branch"
    path = save_schedule(schedule, tmp_path / "corpus" / "s777.json")
    loaded = load_schedule(path)
    assert schedule_to_dict(loaded) == schedule_to_dict(schedule)


def test_schedule_loader_rejects_unknown_format():
    data = schedule_to_dict(generate_schedule(1))
    data["format"] = 99
    with pytest.raises(ConfigurationError):
        schedule_from_dict(data)


# -------------------------------------------------------------------- trials
def test_trial_run_is_deterministic():
    schedule = generate_schedule(CR_BUG_SEED, CR_SLOW_LINK)
    first = run_trial(schedule)
    second = run_trial(schedule)
    assert first.ok and second.ok
    assert first.artifact_digest == second.artifact_digest
    assert first.duration == second.duration
    assert first.completed_ops == second.completed_ops


# ------------------------------------------------------------------ shrinker
def _needs_both_crashes(schedule):
    """Synthetic oracle: violation iff crashes of nodes 0 AND 1 survive."""
    crashed = {e.node for e in schedule.events if e.kind.value == "crash"}
    return {0, 1} <= crashed


def _synthetic_schedule(events):
    schedule = generate_schedule(9)
    schedule.events = events
    schedule.migrations = []
    return schedule


def test_shrinker_deletes_every_non_load_bearing_event():
    schedule = _synthetic_schedule(
        [
            FailureEvent.crash(1e-4, 0),
            FailureEvent.slow_node(1.2e-4, 2, 3.0),
            FailureEvent.crash(1.5e-4, 1),
            FailureEvent.clock_skew(2e-4, 2, 1e-4),
            FailureEvent.recover(3e-4, 0),
        ]
    )
    assert _needs_both_crashes(schedule)
    minimal = shrink_schedule(schedule, oracle=_needs_both_crashes, coarsen=False)
    assert [e.kind.value for e in minimal.events] == ["crash", "crash"]
    assert {e.node for e in minimal.events} == {0, 1}
    assert is_one_minimal(minimal, oracle=_needs_both_crashes)
    assert not is_one_minimal(schedule, oracle=_needs_both_crashes)


def test_shrinker_minimizes_migration_bearing_schedules():
    # Regression for the PR 7 shrinker on schedules that carry planned
    # migrations and the autoscale cell flag: deletion must consider
    # migrations as first-class droppable slots, the surviving schedule
    # must be one-minimal, and dataclasses.replace-based copies must carry
    # the autoscale flag through every shrink step. The minimal schedule is
    # then re-verified by actually replaying it.
    schedule = FuzzSchedule(
        seed=9,
        protocol="hermes",
        num_replicas=3,
        shards=2,
        write_ratio=0.2,
        txn_fraction=0.0,
        num_keys=24,
        clients_per_replica=2,
        ops_per_client=60,
        max_sim_time=0.030,
        events=[
            FailureEvent.crash(1e-4, 1),
            FailureEvent.slow_node(1.5e-4, 2, 2.0),
            FailureEvent.recover(8e-3, 1),
        ],
        migrations=[
            PlannedMigration(at_time=4e-3, migration=ShardMigration(0, 1, stride=2, offset=0)),
            PlannedMigration(at_time=12e-3, migration=ShardMigration(1, 0, stride=4, offset=1)),
            PlannedMigration(at_time=20e-3, migration=ShardMigration(0, 1, stride=4, offset=2)),
        ],
        autoscale=True,
    )

    def oracle(candidate):
        return (
            candidate.autoscale
            and any(p.migration.source == 1 for p in candidate.migrations)
            and any(e.kind.value == "crash" for e in candidate.events)
        )

    assert oracle(schedule)
    assert not is_one_minimal(schedule, oracle=oracle)
    minimal = shrink_schedule(schedule, oracle=oracle, coarsen=False)
    assert oracle(minimal)
    assert is_one_minimal(minimal, oracle=oracle)
    assert [e.kind.value for e in minimal.events] == ["crash"]
    assert len(minimal.migrations) == 1
    assert minimal.migrations[0].migration == ShardMigration(1, 0, stride=4, offset=1)
    assert minimal.autoscale, "shrinking dropped the autoscale cell flag"
    outcome = run_trial(minimal)
    assert outcome.ok, outcome.violations


def test_shrinker_coarsens_times_and_parameters():
    def oracle(schedule):
        return any(
            e.kind.value == "degrade_link" and e.latency_factor >= 3.0
            for e in schedule.events
        )

    schedule = _synthetic_schedule(
        [
            FailureEvent.slow_link(
                1.3472e-4, 0, 1,
                latency_factor=7.43, loss_rate=0.173,
                duplicate_rate=0.158, duplicate_delay=4.67e-4,
            )
        ]
    )
    minimal = shrink_schedule(schedule, oracle=oracle)
    event = minimal.events[0]
    assert event.time == 0.0  # rounded to 2 digits, still violating
    assert event.latency_factor == 7.0
    assert event.loss_rate == 0.0
    assert event.duplicate_rate == 0.0
    assert event.duplicate_delay == 0.0


# ---------------------------------------------------------------- gray faults
@pytest.mark.parametrize("shards", [1, 2])
def test_slow_node_scales_private_model_and_restores(shards):
    # The node process owns the CPU: the replica at S=1, the shard host
    # (whose guests all share its timeline) at S=2.
    cluster = make_cluster("hermes", 3, shards=shards)
    node = cluster.nodes[1]
    base = node.service_model
    cluster.slow_node(1, 4.0)
    assert node.cpu_scale == 4.0
    assert node.service_model.base == pytest.approx(base.base * 4.0)
    # The shared base model is never mutated: other nodes are unaffected.
    assert cluster.nodes[0].cpu_scale == 1.0
    assert cluster.nodes[0].service_model.base == pytest.approx(base.base)
    cluster.slow_node(1, 1.0)
    assert node.service_model is base


@pytest.mark.parametrize("shards", [1, 2])
def test_clock_skew_events_stay_within_bound(shards):
    cluster = make_cluster("hermes", 3, shards=shards)
    bound = 1e-3
    events = [FailureEvent.clock_skew(t * 1e-4, 1, 0.8e-3, bound=bound) for t in (1, 2, 3)]
    FailureInjector(cluster, events).arm()
    cluster.run(until=1e-3)
    clock = cluster.node_clock(1)
    assert abs(clock.offset) <= bound
    # Every shard replica on the node reads the node's one clock.
    assert all(replica.clock is clock for replica in cluster.replicas_on(1))


def test_slow_link_events_degrade_and_heal_through_injector():
    cluster = make_cluster("cr", 3)
    events = [
        FailureEvent.slow_link(
            1e-4, 0, 1, latency_factor=5.0, duplicate_rate=0.3, duplicate_delay=1e-4
        ),
        FailureEvent.heal_link(2e-4, 0, 1),
    ]
    FailureInjector(cluster, events).arm()
    cluster.run(until=1.5e-4)
    fault = cluster.network._link_faults[(0, 1)]
    assert fault.latency_factor == 5.0
    assert fault.duplicate_rate == 0.3
    assert cluster.network._link_faults[(1, 0)] == fault  # symmetric
    cluster.run(until=3e-4)
    assert (0, 1) not in cluster.network._link_faults


def test_slow_flaky_links_keep_guarded_cr_linearizable():
    # The exact schedule that breaks CR with the write-down version guard
    # disabled (see test_injected_stale_write_down_bug_is_caught): with the
    # guard ON, delayed and duplicated write-downs are absorbed — versioned
    # write-downs never apply out of order, so the history stays
    # linearizable.
    schedule = generate_schedule(CR_BUG_SEED, CR_SLOW_LINK)
    assert any((e.duplicate_rate or 0.0) > 0.0 for e in schedule.events)
    outcome = run_trial(schedule)
    assert outcome.ok, outcome.violations


# ---------------------------------------------------------------- campaigns
def test_campaign_is_clean_on_healthy_protocols_and_selects_corpus():
    result = run_campaign(root_seed=7, trials=6, jobs=1)
    assert result.ok
    assert [o.schedule.seed for o in result.outcomes] == [
        derive_trial_seed(7, index) for index in range(6)
    ]
    corpus = select_corpus(result.outcomes, limit=3)
    assert 1 <= len(corpus) <= 3
    signatures = {
        (s.protocol, s.shards, bool(s.migrations)) for s in corpus
    }
    assert len(signatures) == len(corpus)


def test_campaign_parallel_and_serial_runs_agree():
    serial = run_campaign(root_seed=11, trials=4, jobs=1, shrink=False)
    parallel = run_campaign(root_seed=11, trials=4, jobs=2, shrink=False)
    assert [o.artifact_digest for o in serial.outcomes] == [
        o.artifact_digest for o in parallel.outcomes
    ]


def test_campaign_cli_prints_each_violation_once(monkeypatch, capsys):
    # The trial fan-out is stubbed; the real campaign logs the violation.
    outcomes = []

    def one_violation(run, schedules, jobs):
        outcomes.append(TrialOutcome(schedule=schedules[0], ok=False, violations=["stale read"]))
        return outcomes

    monkeypatch.setattr(campaign, "parallel_map", one_violation)
    status = fuzz_cli.main(["campaign", "--seed", "7", "--trials", "1", "--no-shrink"])
    assert status == 1
    assert capsys.readouterr().out.count(outcomes[0].describe()) == 1


def test_injected_stale_write_down_bug_is_caught_and_shrunk(monkeypatch):
    # The acceptance self-test: disable CR's stale write-down guard, run a
    # bounded smoke-scale campaign, and require the fuzzer to (a) catch the
    # resulting linearizability violation and (b) shrink it to a <=5-event
    # repro that is one-minimal and passes again with the guard restored.
    # jobs=1 keeps trials in-process so they observe the monkeypatch.
    monkeypatch.setattr(chain, "WRITE_DOWN_VERSION_GUARD", False)
    result = run_campaign(root_seed=4242, trials=20, config=CR_SLOW_LINK, jobs=1)
    assert result.violations, "campaign missed the injected stale write-down bug"
    minimized = result.minimized[0]
    assert len(minimized.events) + len(minimized.migrations) <= 5
    assert is_one_minimal(minimized)
    assert not run_trial(minimized).ok

    monkeypatch.setattr(chain, "WRITE_DOWN_VERSION_GUARD", True)
    assert run_trial(minimized).ok, "guarded CR must absorb the minimized schedule"


@pytest.mark.parametrize("seed", [1133730262, 1499304825])
def test_fuzz_found_craq_migration_copy_regression(seed):
    # Found by campaign root seed 20260808: the migration copy phase read
    # CRAQ's raw record values (stale since preload) instead of the
    # committed version map, so migrated keys reverted to their initial
    # values at the target shard. Shrinks to zero fault events + one
    # migration.
    outcome = run_trial(generate_schedule(seed))
    assert outcome.ok, outcome.violations
