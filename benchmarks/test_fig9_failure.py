"""Figure 9: HermesKV throughput across a node failure (150 ms detection timeout).

Paper result: throughput collapses to ~zero immediately after the failure
(live nodes block on the failed node's ACKs), stays there until the
conservative detection timeout and lease expiry allow a reliable membership
update, then recovers to a steady state served by the surviving replicas.
"""

from __future__ import annotations

from repro.bench.experiments import FIGURES


def test_fig9_throughput_under_failure(run_once):
    result = run_once(
        FIGURES["9"].parts[0], crash_time=0.060, detection_timeout=0.150, total_time=0.400
    )
    print()
    print(result.notes)
    print(result.table())

    series = dict(result.data["series"])
    window = result.data["window"]
    crash_time = result.data["crash_time"]

    def window_value(time):
        return series[round(time / window) * window]

    before = window_value(0.040)
    blocked = window_value(0.150)
    recovered = window_value(0.350)

    # Healthy before the crash, (near-)zero while blocked, recovered afterwards.
    assert before > 0
    assert blocked < 0.05 * before
    assert recovered > 0.5 * before

    # The membership was reliably updated exactly once, and only after the
    # detection timeout elapsed past the crash.
    reconfig_times = result.data["reconfiguration_times"]
    assert len(reconfig_times) == 1
    assert reconfig_times[0] > crash_time + 0.150
    # Recovery happens promptly after the reconfiguration.
    assert recovered > 0


def test_fig9_sharded_crash_and_recovery(run_once):
    """Figure 9 on a sharded cluster: one per-node membership stack serves
    all co-hosted shards, the crashed node is a shard's transaction lock
    master, the node later restarts (outside the view), and the recorded
    history passes the linearizability and transaction-atomicity checkers.
    """
    result = run_once(FIGURES["9"].parts[0], shards=4)
    print()
    print(result.notes)

    series = dict(result.data["series"])
    window = result.data["window"]
    crash_time = result.data["crash_time"]

    def window_value(time):
        return series[round(time / window) * window]

    before = window_value(0.040)
    recovered = window_value(0.350)
    assert before > 0
    # Post-reconfiguration throughput recovers on the surviving replicas.
    assert recovered > 0.5 * before

    reconfig_times = result.data["reconfiguration_times"]
    assert len(reconfig_times) == 1
    assert reconfig_times[0] > crash_time + 0.150

    # End-to-end verification of the sharded crash/recovery run.
    assert result.data["linearizable"]
    assert result.data["txn_check_ok"]
    assert result.data["txns_committed"] > 0
    # The crash stranded at least some transactions (resolved by aborts or
    # the indeterminate timeout outcome, never by a wrong commit).
    assert result.data["txns_aborted"] + result.data["txns_timedout"] > 0
