"""Figure 7: scalability with the replication degree (3, 5, 7 replicas).

Paper result: Hermes benefits from added replicas (near-linear at 1% writes)
and keeps its advantage at 20% writes; CRAQ's longer chain and ZAB's leader
erode their scaling, with ZAB's throughput dropping sharply at 7 nodes under
20% writes.
"""

from __future__ import annotations

from repro.bench.experiments import FIGURES, sweep


def test_fig7_scalability(run_once, scale, jobs):
    result = run_once(sweep, FIGURES["7"].parts[0], scale, jobs=jobs)
    print()
    print(result.table())

    # Hermes gains throughput from 3 to 7 replicas at 1% writes.
    assert result.data[("hermes", 0.01, 7)] > result.data[("hermes", 0.01, 3)]

    # At both write ratios and every replication degree Hermes stays on top.
    for ratio in (0.01, 0.20):
        for replicas in (3, 5, 7):
            hermes = result.data[("hermes", ratio, replicas)]
            assert hermes > result.data[("craq", ratio, replicas)]
            assert hermes > result.data[("zab", ratio, replicas)]

    # Hermes scales better than CRAQ between 3 and 7 nodes at 20% writes
    # (CRAQ's chain gets longer; the paper even sees CRAQ regress 5 -> 7).
    hermes_gain = result.data[("hermes", 0.20, 7)] / result.data[("hermes", 0.20, 3)]
    craq_gain = result.data[("craq", 0.20, 7)] / result.data[("craq", 0.20, 3)]
    assert hermes_gain > craq_gain

    # ZAB does not scale at 20% writes: 7 nodes is no better than 3.
    assert result.data[("zab", 0.20, 7)] <= result.data[("zab", 0.20, 3)] * 1.1
