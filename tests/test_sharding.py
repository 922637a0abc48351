"""Key-range sharding: routing, invariants, determinism, byte-compat.

The sharding refactor (partitioned protocol groups in one simulated
cluster, plus process-parallel shard execution) must uphold four
invariants, each covered here:

* key→shard routing is stable across processes and partitions the key
  space completely;
* the operation stream is invariant under the shard count — every client
  issues exactly the same operations whether the deployment has 1, 2 or 8
  shards, in either execution mode;
* per-shard histories remain linearizable (linearizability is per-key and
  every key lives in exactly one shard, so merged histories check too);
* ``shards=1`` is byte-identical to the pre-sharding code: the committed
  ``bench-baselines/smoke`` artifacts must reproduce exactly.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import zlib
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench.harness import (
    ExperimentSpec,
    Scale,
    merge_shard_results,
    run_experiment,
    run_shard_experiment,
)
from repro.bench.runner import derive_cell_seed, resolve_scale, run_figure, run_specs
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.sharding import ShardRouter
from repro.errors import BenchmarkError, ConfigurationError
from repro.types import Operation, OpStatus
from repro.verification.linearizability import check_history
from repro.workloads.generator import WorkloadMix

REPO_ROOT = Path(__file__).resolve().parent.parent

TINY = Scale("tiny", num_keys=120, clients_per_replica=2, ops_per_client=40)


def tiny_spec(**kwargs) -> ExperimentSpec:
    defaults = dict(protocol="hermes", num_replicas=3, write_ratio=0.25, seed=11)
    defaults.update(kwargs)
    return ExperimentSpec(**defaults).with_scale(TINY)


# ------------------------------------------------------------------ routing
def test_shard_router_partitions_the_key_space():
    router = ShardRouter(4)
    shards = [router.shard_of(key) for key in range(200)]
    assert set(shards) == {0, 1, 2, 3}
    # Integer keys map by modulo: balanced and stable.
    assert all(shard == key % 4 for key, shard in enumerate(shards))


def test_shard_router_is_stable_for_non_int_keys():
    # Non-integer keys route through CRC-32 of their repr — a function of
    # the bytes alone, immune to per-process hash randomization.
    router = ShardRouter(3)
    for key in ("alpha", b"beta", ("k", 7)):
        assert router.shard_of(key) == zlib.crc32(repr(key).encode("utf-8")) % 3
        assert router.shard_of(key) == router.shard_of(key)


def test_shard_router_rejects_zero_shards():
    with pytest.raises(ConfigurationError):
        ShardRouter(0)


def test_shard_router_non_int_routing_is_pinned_across_runs():
    # The CRC-32-of-repr mapping is part of the persistence contract: a
    # routing change would silently re-partition preloaded datasets between
    # code versions. These literals pin the exact current mapping, so any
    # future change fails loudly here instead.
    expected = {
        "alpha": {2: 0, 3: 1, 8: 6},
        b"beta": {2: 1, 3: 2, 8: 1},
        ("k", 7): {2: 1, 3: 0, 8: 3},
        "user:42": {2: 1, 3: 1, 8: 3},
    }
    for key, per_shard_count in expected.items():
        for shards, shard in per_shard_count.items():
            assert ShardRouter(shards).shard_of(key) == shard, (key, shards)


def test_shard_router_shards1_is_the_identity():
    router = ShardRouter(1)
    for key in [0, 7, 10**9, -3, "alpha", b"beta", ("k", 7), 3.5]:
        assert router.shard_of(key) == 0


def test_router_and_preload_partitions_agree():
    # The cluster's preload partitioning, the client's per-op routing and
    # the standalone router must all place a key on the same shard.
    cluster = Cluster(ClusterConfig(protocol="hermes", num_replicas=3, shards=4, seed=8))
    workload = WorkloadMix.uniform(96, 0.2, seed=8)
    cluster.preload(workload.initial_dataset())
    router = ShardRouter(4)
    for key in range(96):
        shard = router.shard_of(key)
        assert cluster.shard_router.shard_of(key) == shard
        for node_id in cluster.node_ids:
            for s in range(4):
                holds = key in cluster.shard_replicas[(node_id, s)].store
                assert holds == (s == shard), (key, node_id, s)


# ------------------------------------------------------- op-count invariance
@pytest.mark.parametrize("mode", ["coupled", "parallel"])
def test_total_op_counts_invariant_under_shard_count(mode):
    expected = 3 * TINY.clients_per_replica * TINY.ops_per_client
    base = tiny_spec()
    for shards in (1, 2, 4):
        result = run_experiment(replace(base, shards=shards, shard_mode=mode))
        assert len(result.results) == expected, (mode, shards)


def test_parallel_shards_partition_the_unsharded_stream():
    # Each shard replays exactly the unsharded stream's operations whose
    # keys it owns: summed over shards, keys and op mix match the
    # unsharded run op for op.
    spec = tiny_spec(shards=3, shard_mode="parallel")
    parts = [run_shard_experiment(spec, shard) for shard in range(3)]
    router = ShardRouter(3)
    for shard, part in enumerate(parts):
        assert part.results, "every shard should receive traffic"
        assert all(router.shard_of(r.op.key) == shard for r in part.results)
    merged = merge_shard_results(spec, parts)
    unsharded = run_experiment(replace(spec, shards=1, shard_mode="coupled"))
    assert sorted(r.op.key for r in merged.results) == sorted(
        r.op.key for r in unsharded.results
    )


# ------------------------------------------------------------ linearizability
@pytest.mark.parametrize("protocol", ["hermes", "craq"])
@pytest.mark.parametrize("mode", ["coupled", "parallel"])
def test_sharded_histories_are_linearizable(protocol, mode):
    spec = tiny_spec(protocol=protocol, shards=3, shard_mode=mode, record_history=True)
    result = run_experiment(spec)
    assert result.history is not None
    assert len(result.history) == len(result.results)
    workload = WorkloadMix.uniform(TINY.num_keys, spec.write_ratio, seed=spec.seed)
    assert check_history(result.history, initial_values=workload.initial_dataset())


# ---------------------------------------------------------------- determinism
def test_parallel_shard_execution_matches_serial():
    specs = [tiny_spec(shards=4, shard_mode="parallel"), tiny_spec(shards=2)]
    serial = run_specs(specs, jobs=1)
    parallel = run_specs(specs, jobs=4)
    for a, b in zip(serial, parallel):
        assert a.throughput == b.throughput
        assert a.overall_latency == b.overall_latency
        assert a.read_latency == b.read_latency
        assert a.write_latency == b.write_latency
        assert a.duration == b.duration
        assert a.cluster_stats == b.cluster_stats


def test_derive_cell_seed_unchanged_by_default_shard_fields():
    # Axis fields at their defaults (`shards`, `shard_mode`, and the
    # transaction axes) are identity-neutral: adding a new axis must not
    # re-seed (and thus invalidate) existing baselines.
    from repro.bench.runner import _IDENTITY_NEUTRAL_DEFAULTS

    spec = tiny_spec()
    assert vars(spec)["shards"] == 1
    excluded = {"seed", *_IDENTITY_NEUTRAL_DEFAULTS}
    identity = sorted(
        (name, repr(value))
        for name, value in vars(spec).items()
        if name not in excluded
    )
    import hashlib

    payload = repr((identity, 1)).encode("utf-8")
    legacy = int.from_bytes(hashlib.sha256(payload).digest()[:4], "big") % (2**31 - 1) + 1
    assert derive_cell_seed(spec, 1) == legacy
    # Non-default axis settings do perturb the seed.
    assert derive_cell_seed(replace(spec, shards=2), 1) != legacy
    assert derive_cell_seed(replace(spec, txn_fraction=0.2), 1) != legacy


# ------------------------------------------------------------ cluster shape
def test_sharded_cluster_partitions_stores_and_crashes_whole_nodes():
    cluster = Cluster(ClusterConfig(protocol="hermes", num_replicas=3, shards=4, seed=2))
    workload = WorkloadMix.uniform(100, 0.2, seed=2)
    cluster.preload(workload.initial_dataset())
    sizes = [len(list(cluster.shard_replicas[(0, s)].store.keys())) for s in range(4)]
    assert sum(sizes) == 100
    assert all(size > 0 for size in sizes)
    assert len(list(cluster.all_replicas())) == 12
    cluster.crash(0)
    assert all(cluster.shard_replicas[(0, s)].crashed for s in range(4))
    assert len(cluster.live_replicas()) == 8


@pytest.mark.parametrize(
    "factor, read_end, write_end",
    [
        (1.0, "0x1.b2fe89a4294dap-27", "0x1.214a4d10fdae8p-18"),
        (3.0, "0x1.463ee73b1efa4p-25", "0x1.269fc1cd96384p-18"),
    ],
)
def test_guest_client_ops_are_priced_by_the_slowed_host(factor, read_end, write_end):
    # slow_node scales only the host's service model: a guest's client op
    # must be priced from its host's CPU, so the read takes 3x as long.
    cluster = Cluster(ClusterConfig(protocol="hermes", num_replicas=3, shards=2, seed=4))
    cluster.preload({k: f"v{k}".encode() for k in range(8)})
    cluster.slow_node(1, factor)
    guest = cluster.replica(1, shard=1)
    done = []
    record = lambda op, status, value: done.append((status, value, cluster.sim.now))
    guest.submit(Operation.read(1), record)
    guest.submit(Operation.write(3, b"w3"), record)
    cluster.run_until(lambda: len(done) == 2, check_interval=1e-6, max_time=0.01)
    assert [(s, v, t.hex()) for s, v, t in done] == [
        (OpStatus.OK, b"v1", read_end),
        (OpStatus.OK, b"w3", write_end),
    ]


def test_sharded_roles_rotate_across_nodes():
    zab = Cluster(ClusterConfig(protocol="zab", num_replicas=3, shards=3, seed=1))
    leaders = [zab.shard_replicas[(0, s)].leader for s in range(3)]
    assert leaders == [0, 1, 2]
    craq = Cluster(ClusterConfig(protocol="craq", num_replicas=3, shards=2, seed=1))
    assert craq.shard_replicas[(0, 0)].chain == [0, 1, 2]
    assert craq.shard_replicas[(0, 1)].chain == [1, 2, 0]


def test_failure_injector_crash_and_recover_on_sharded_cluster():
    from repro.cluster.failures import FailureEvent, FailureInjector

    cluster = Cluster(ClusterConfig(protocol="hermes", num_replicas=3, shards=2, seed=4))
    injector = FailureInjector(
        cluster, [FailureEvent.crash(1e-3, 0), FailureEvent.recover(2e-3, 0)]
    )
    injector.arm()
    cluster.run(until=1.5e-3)
    assert all(cluster.shard_replicas[(0, s)].crashed for s in range(2))
    cluster.run(until=3e-3)
    assert not any(cluster.shard_replicas[(0, s)].crashed for s in range(2))


def test_membership_service_supported_on_sharded_clusters():
    # Shard-aware membership: a sharded cluster with the RM service builds
    # one per-node agent (owned by the ShardHost) shared by every guest.
    cluster = Cluster(
        ClusterConfig(protocol="hermes", num_replicas=3, shards=2, run_membership_service=True)
    )
    for node_id, host in cluster.nodes.items():
        assert host.membership_agent is not None
        for replica in host.shard_replicas:
            assert replica.membership_agent is host.membership_agent
    assert cluster.membership_service is not None


def test_parallel_mode_rejects_open_loop_clients():
    with pytest.raises(BenchmarkError):
        run_experiment(
            tiny_spec(shards=2, shard_mode="parallel", client_model="open", offered_load=1e6)
        )


def test_grid_overrides_respect_figure_owned_axes():
    from repro.bench.runner import run_cells

    # A grid that sweeps the shard axis itself (any cell non-default) owns
    # it: the override must not relabel the sweep.
    owned = run_cells(
        [("a", tiny_spec()), ("b", tiny_spec(shards=2))],
        root_seed=1,
        jobs=1,
        spec_overrides={"shards": 4},
    )
    assert owned["a"].spec.shards == 1
    assert owned["b"].spec.shards == 2
    # A grid with the field at its default everywhere takes the override.
    plain = run_cells(
        [("c", tiny_spec())], root_seed=1, jobs=1, spec_overrides={"shards": 2}
    )
    assert plain["c"].spec.shards == 2


def test_cli_shards_flag_reaches_the_grids(tmp_path):
    # End to end under ``python -m``: --shards/--shard-mode travel from the
    # CLI to every grid cell as arguments (no module state, so the runner
    # executing as ``__main__`` cannot lose them) and the artifact stamps them.
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.bench.runner",
            "--figure",
            "8",
            "--scale",
            "smoke",
            "--shards",
            "2",
            "--shard-mode",
            "parallel",
            "--quiet",
            "--jobs",
            "2",
            "--output-dir",
            str(tmp_path),
        ],
        check=True,
        env=env,
        cwd=REPO_ROOT,
    )
    payload = json.loads((tmp_path / "BENCH_fig8.json").read_text())
    assert payload["spec_overrides"] == {"shards": 2, "shard_mode": "parallel"}
    baseline = json.loads(
        (REPO_ROOT / "bench-baselines" / "smoke" / "BENCH_fig8.json").read_text()
    )
    # Sharded-parallel write-only throughput must actually differ from the
    # unsharded baseline numbers (the flag did something).
    assert payload["results"][0]["data"] != baseline["results"][0]["data"]


def test_shards_override_leaves_the_openloop_figure_unchanged():
    # The open-loop figure owns its shard axis and calibrates its ladder on
    # the unsharded protocol: --shards must reach neither its grid nor its
    # capacity probe, so the data equals the default run's, capacities too.
    payload = run_figure(
        "openloop", resolve_scale("smoke"), jobs=1, print_tables=False, overrides={"shards": 4}
    )
    assert payload["spec_overrides"] == {"shards": 4}
    baseline = json.loads(
        (REPO_ROOT / "bench-baselines" / "smoke" / "BENCH_openloop.json").read_text()
    )
    data = payload["results"][0]["data"]
    assert {f"{protocol},capacity" for protocol in ("hermes", "craq", "zab")} <= set(data)
    assert data == baseline["results"][0]["data"]


# -------------------------------------------------------- baseline byte-compat
@pytest.mark.parametrize("figure", ["9", "table2"])
def test_shards1_artifacts_byte_identical_to_smoke_baselines(figure, tmp_path):
    baseline = REPO_ROOT / "bench-baselines" / "smoke" / (
        f"BENCH_fig{figure}.json" if figure[0].isdigit() else f"BENCH_{figure}.json"
    )
    run_figure(
        figure,
        resolve_scale("smoke"),
        seed=1,
        jobs=1,
        output_dir=str(tmp_path),
        print_tables=False,
    )
    fresh = tmp_path / baseline.name
    assert fresh.read_bytes() == baseline.read_bytes()
