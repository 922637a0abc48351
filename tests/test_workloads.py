"""Workload generation: distributions and mixes."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.errors import WorkloadError
from repro.types import OpType
from repro.workloads.distributions import UniformKeys, ZipfianKeys
from repro.workloads.generator import WorkloadMix, sized_value_factory


# ----------------------------------------------------------- distributions
def test_uniform_keys_within_range():
    dist = UniformKeys(100)
    rng = random.Random(1)
    assert all(0 <= dist.sample(rng) < 100 for _ in range(500))


def test_uniform_covers_keyspace_roughly_evenly():
    dist = UniformKeys(10)
    rng = random.Random(2)
    counts = Counter(dist.sample(rng) for _ in range(5000))
    assert set(counts) == set(range(10))
    assert max(counts.values()) < 3 * min(counts.values())


def test_zipfian_favours_low_ranks():
    dist = ZipfianKeys(1000, exponent=0.99)
    rng = random.Random(3)
    counts = Counter(dist.sample(rng) for _ in range(20000))
    assert counts[0] > counts.get(500, 0)
    assert counts[0] > 0.02 * 20000  # the hottest key gets a few percent


def test_zipfian_probability_of_rank_decreasing():
    dist = ZipfianKeys(100, exponent=0.99)
    probs = [dist.probability_of_rank(r) for r in range(100)]
    assert all(probs[i] >= probs[i + 1] for i in range(99))
    assert sum(probs) == pytest.approx(1.0)


def test_zipfian_shuffle_permutes_hot_keys():
    plain = ZipfianKeys(50, exponent=0.99)
    shuffled = ZipfianKeys(50, exponent=0.99, shuffle_seed=3)
    rng = random.Random(4)
    hot_plain = Counter(plain.sample(rng) for _ in range(2000)).most_common(1)[0][0]
    rng = random.Random(4)
    hot_shuffled = Counter(shuffled.sample(rng) for _ in range(2000)).most_common(1)[0][0]
    assert hot_plain == 0
    assert hot_shuffled != 0 or True  # permutation may map rank 0 to any key


def test_distribution_validation():
    with pytest.raises(WorkloadError):
        UniformKeys(0)
    with pytest.raises(WorkloadError):
        ZipfianKeys(10, exponent=0.0)
    with pytest.raises(WorkloadError):
        ZipfianKeys(10).probability_of_rank(99)


@given(st.integers(1, 500), st.integers(0, 2**31 - 1))
def test_zipfian_samples_always_in_range(num_keys, seed):
    dist = ZipfianKeys(num_keys, exponent=0.99)
    rng = random.Random(seed)
    assert 0 <= dist.sample(rng) < num_keys


# --------------------------------------------------------------------- mix
def test_mix_write_ratio_respected_statistically():
    mix = WorkloadMix.uniform(num_keys=100, write_ratio=0.2, seed=1)
    ops = [mix.next_operation(0) for _ in range(4000)]
    writes = sum(1 for op in ops if op.op_type.is_update)
    assert 0.15 < writes / len(ops) < 0.25


def test_mix_read_only_and_write_only():
    reads = WorkloadMix.uniform(10, 0.0)
    writes = WorkloadMix.uniform(10, 1.0)
    assert all(reads.next_operation(0).op_type is OpType.READ for _ in range(50))
    assert all(writes.next_operation(0).op_type is OpType.WRITE for _ in range(50))


def test_mix_rmw_ratio_produces_rmws():
    mix = WorkloadMix.uniform(10, write_ratio=1.0, rmw_ratio=1.0)
    assert all(mix.next_operation(0).op_type is OpType.RMW for _ in range(20))


def test_mix_is_deterministic_per_seed_and_client():
    a = WorkloadMix.uniform(100, 0.3, seed=9)
    b = WorkloadMix.uniform(100, 0.3, seed=9)
    ops_a = [(o.op_type, o.key) for o in a.stream(3, 50)]
    ops_b = [(o.op_type, o.key) for o in b.stream(3, 50)]
    assert ops_a == ops_b


def test_mix_clients_get_distinct_streams():
    mix = WorkloadMix.uniform(1000, 0.5, seed=1)
    keys_0 = [mix.next_operation(0).key for _ in range(20)]
    keys_1 = [mix.next_operation(1).key for _ in range(20)]
    assert keys_0 != keys_1


def test_written_values_are_unique():
    mix = WorkloadMix.uniform(10, 1.0, value_size=32, seed=2)
    values = [mix.next_operation(0).payload for _ in range(100)]
    assert len(set(values)) == len(values)


def test_value_factory_produces_exact_size():
    factory = sized_value_factory(64)
    assert len(factory(123, 5)) == 64
    assert len(sized_value_factory(4)(123456, 789)) == 4


def test_initial_dataset_covers_all_keys():
    mix = WorkloadMix.uniform(25, 0.5, value_size=16)
    dataset = mix.initial_dataset()
    assert set(dataset) == set(range(25))
    assert all(len(v) == 16 for v in dataset.values())


def test_mix_validation():
    with pytest.raises(WorkloadError):
        WorkloadMix.uniform(10, write_ratio=1.5)
    with pytest.raises(WorkloadError):
        WorkloadMix.uniform(10, write_ratio=0.5, value_size=0)
