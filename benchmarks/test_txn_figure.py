"""Cross-shard transactions: abort shape, fast path, and atomicity.

Expected shape of the ``--figure txn`` grid (2PC over shard groups,
zipfian(0.99) contention, no-wait locks at per-shard lock masters):

* the abort rate **rises monotonically with the cross-shard probability**
  at every shard count > 1 — cross-shard transactions hold their locks
  across the full two-phase round instead of one lock-master visit,
  widening the conflict window;
* ``S = 1`` runs entirely on the single-shard fast path, so its abort
  rate reflects pure key contention and every transaction is fast-pathed;
* the ``txn off`` control rows run the identical workload without
  transactions (zero transaction counters, at least the transactional
  cells' throughput ballpark);
* a recorded history of the most contended cell passes the transaction
  atomicity checker (no fractured reads, aborted transactions invisible)
  and stays per-key linearizable.
"""

from __future__ import annotations

from repro.bench.experiments import FIGURES, TXN_CROSS_SHARD_POINTS, sweep
from repro.bench.harness import ExperimentSpec, run_experiment
from repro.bench.runner import derive_cell_seed
from repro.verification.linearizability import check_history
from repro.verification.transactions import check_transactions
from repro.workloads.distributions import ZipfianKeys
from repro.workloads.generator import WorkloadMix


def test_txn_figure_shape(run_once, scale, jobs):
    result = run_once(sweep, FIGURES["txn"].parts[0], scale, jobs=jobs)
    print()
    print(result.table())

    for shards in (1, 2, 4, 8):
        off = result.data[(shards, "off")]
        assert off["txns_committed"] == 0 and off["txns_aborted"] == 0

    # S=1: every transaction fast-paths through the single group.
    single = result.data[(1, 0.0)]
    assert single["txns_committed"] > 0
    assert single["txns_cross_shard"] == 0

    # Abort rate rises monotonically with the cross-shard probability.
    for shards in (2, 4, 8):
        rates = [result.data[(shards, p)]["abort_rate"] for p in TXN_CROSS_SHARD_POINTS]
        assert rates[0] < rates[1] < rates[2], (shards, rates)
        fully_cross = result.data[(shards, 1.0)]
        assert fully_cross["txns_cross_shard"] > 0


def test_txn_history_is_atomic_and_linearizable(run_once, scale):
    spec = ExperimentSpec(
        protocol="hermes",
        write_ratio=0.5,
        zipfian_exponent=0.99,
        shards=4,
        txn_fraction=0.25,
        txn_keys=3,
        txn_cross_shard=1.0,
        record_history=True,
        label="txn-verify",
    ).with_scale(scale)
    spec = ExperimentSpec(**{**vars(spec), "seed": derive_cell_seed(spec, 1)})
    result = run_once(run_experiment, spec)

    check = check_transactions(result.history)
    assert check.committed > 0
    assert check.ok, check.violations[:5]

    workload = WorkloadMix(
        distribution=ZipfianKeys(spec.num_keys, 0.99),
        write_ratio=spec.write_ratio,
        seed=spec.seed,
    )
    assert check_history(result.history, initial_values=workload.initial_dataset())
