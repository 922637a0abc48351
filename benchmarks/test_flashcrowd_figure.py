"""Flash-crowd figure: auto-resharding recovers post-shift throughput.

Expected shape: with the autoscale policy off, the mid-run hot-spot shift
pins aggregate throughput on the newly hot shard; with the policy on, the
control loop migrates slices of the hot shard to cold shards and the
post-shift aggregate recovers by >= 1.3x over the control row. Both rows
are checker-verified (per-key linearizability + transaction atomicity,
plus migration atomicity for the policy row).
"""

from __future__ import annotations

from repro.bench.experiments import FIGURES


def test_autoscale_recovers_post_shift_throughput(run_once):
    result = run_once(FIGURES["flashcrowd"].parts[0])
    print()
    print(result.table())
    print(result.notes)

    off, on = result.data["off"], result.data["on"]
    assert result.data["recovery_ratio"] >= 1.3, result.data["recovery_ratio"]
    assert on["post_rate"] >= 1.3 * off["post_rate"]

    # The policy actually moved slices (and none were lost to the watchdog
    # in this fault-free scenario); the control row moved nothing.
    assert on["migrations_completed"] >= 2
    assert on["migrations_cancelled"] == 0
    assert len(on["rounds"]) == on["migrations_completed"]
    assert off["migrations_completed"] == 0 and not off["rounds"]

    # The initial zipfian head is itself imbalanced, so the policy also
    # helps before the shift; it must never make the pre-window worse.
    assert off["pre_rate"] > 0
    assert on["pre_rate"] >= off["pre_rate"]

    # Both runs are checker-verified end to end.
    assert off["check_all_ok"], off["checks"]
    assert on["check_all_ok"], on["checks"]
    assert on["checks"]["migration"]
