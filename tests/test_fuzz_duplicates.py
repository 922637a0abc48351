"""Duplicate everything: every link delivers every message twice.

The paper's fabric loses, duplicates and reorders messages (§3.4
"Imperfect Links"), and every layer on top of it must absorb a duplicate.
Each cell here is a generated fuzz schedule (crashes, partitions and slow
nodes; Hermes with transactions, CR and CRAQ; sharded cells with a planned
migration) plus, from time zero, a ``slow_link`` fault on every replica
pair that duplicates each message after an extra delay of up to 2 ms, so
the copy often lands after newer traffic for the same key. Every trial
must stay green.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.cluster.failures import FailureEvent
from repro.fuzz import FuzzConfig, derive_trial_seed, generate_schedule, run_trial

#: Schedules per protocol: about 0.1 s of host time each.
TRIALS = 10

#: Fault mix without link faults of the schedule's own, which would replace
#: the duplicating fault on the pair they degrade.
CONFIG = dict(
    txn_fractions=(0.2,),
    fault_kinds=("crash", "partition", "slow_node"),
    migration_probability=1.0,
)


def duplicating(schedule, rng):
    """``schedule`` with a late-duplicating fault on every replica pair."""
    delay_bound = FuzzConfig().max_duplicate_delay
    links = [
        FailureEvent.slow_link(
            0.0, a, b, duplicate_rate=1.0, duplicate_delay=round(rng.uniform(0.0, delay_bound), 6)
        )
        for a, b in itertools.combinations(range(schedule.num_replicas), 2)
    ]
    schedule.events = links + schedule.events
    return schedule


@pytest.mark.parametrize("protocol", ["hermes", "cr", "craq"])
def test_every_message_duplicated_stays_linearizable(protocol):
    rng = random.Random(protocol)
    config = FuzzConfig(protocols=(protocol,), **CONFIG)
    schedules = [
        duplicating(generate_schedule(derive_trial_seed(42, index), config), rng)
        for index in range(TRIALS)
    ]
    assert any(s.shards > 1 and s.migrations for s in schedules)
    if protocol == "hermes":
        assert all(s.txn_fraction > 0 for s in schedules)
    failures = [
        outcome.describe() for outcome in map(run_trial, schedules) if not outcome.ok
    ]
    assert failures == []


#: Duplicated schedules of the autoscaling cell: about 0.05 s each.
AUTOSCALE_TRIALS = 20


def test_every_message_duplicated_under_autoscaling_stays_linearizable():
    # Crash -> recover -> rejoin on sharded Hermes while the autoscaler
    # migrates slices, every message delivered twice.
    rng = random.Random("hermes-autoscale")
    config = FuzzConfig(
        protocols=("hermes",),
        autoscale_probability=1.0,
        shard_counts=(2, 4),
        fault_kinds=("crash",),
    )
    schedules = [
        duplicating(generate_schedule(derive_trial_seed(42, index), config), rng)
        for index in range(AUTOSCALE_TRIALS)
    ]
    assert all(s.autoscale for s in schedules)
    assert any(e.kind.value == "recover" for s in schedules for e in s.events)
    failures = [
        outcome.describe() for outcome in map(run_trial, schedules) if not outcome.ok
    ]
    assert failures == []
