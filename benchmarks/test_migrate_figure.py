"""Live shard migration figure: throughput rebalances, atomicity holds.

Expected shape: after the routing flip, the source shard serves roughly
half of its pre-migration load (half of its key range moved away) and the
target shard roughly half more, while uninvolved shards are unchanged; the
recorded history passes both the per-key linearizability checker and the
migration-atomicity checker (no operation observes pre-migration state
after the flip).
"""

from __future__ import annotations

from repro.bench.experiments import FIGURES


def test_migrate_throughput_rebalances_across_shards(run_once):
    result = run_once(FIGURES["migrate"].parts[0])
    print()
    print(result.table())
    print(result.notes)

    summary = result.data["summary"]
    assert summary["migrated_keys"] > 0
    assert (
        summary["freeze_time"]
        <= summary["frozen_time"]
        <= summary["copied_time"]
        <= summary["flip_time"]
    )

    source, target = result.data[0], result.data[2]
    untouched = [result.data[1], result.data[3]]
    # The source lost roughly half its range, the target gained it.
    assert source["ratio"] < 0.75, source
    assert target["ratio"] > 1.25, target
    for shard in untouched:
        assert 0.8 < shard["ratio"] < 1.2, shard
    # Aggregate throughput survives the rebalance (no collapse).
    pre_total = sum(result.data[s]["pre_ops_s"] for s in range(4))
    post_total = sum(result.data[s]["post_ops_s"] for s in range(4))
    assert post_total > 0.8 * pre_total

    # The run is checker-verified end to end.
    assert summary["linearizable"]
    assert summary["migration_check_ok"]
    assert summary["post_flip_reads_checked"] > 0
