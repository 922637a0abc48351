"""Ablation benchmarks for the design choices called out in DESIGN.md.

These do not reproduce a specific paper figure; they quantify the protocol
optimizations the paper describes in §3.3 and the Wings batching layer of
§4.2 on the simulated substrate.
"""

from __future__ import annotations

from repro.bench.experiments import FIGURES, sweep


def test_ablation_protocol_optimizations(run_once, scale, jobs):
    result = run_once(sweep, FIGURES["ablations"].parts[0], scale, jobs=jobs)
    print()
    print(result.table())
    baseline = result.data["baseline (O1 on)"]
    o3 = result.data["O3 (broadcast ACKs)"]
    no_o1 = result.data["no O1 (always VAL)"]
    # Every variant still delivers comparable throughput (the optimizations
    # are about latency/fairness/bandwidth, not raw correctness or order-of-
    # magnitude throughput differences).
    for variant in result.data.values():
        assert variant["throughput"] > 0.3 * baseline["throughput"]
    # O3 broadcasts ACKs to everyone: strictly more messages on the wire.
    assert o3["messages_sent"] > baseline["messages_sent"]
    # Disabling O1 can only add VAL traffic, never remove it.
    assert no_o1["messages_sent"] >= baseline["messages_sent"]


def test_ablation_wings_batching(run_once, scale, jobs):
    result = run_once(sweep, FIGURES["ablations"].parts[1], scale, jobs=jobs)
    print()
    print(result.table())
    direct = result.data["direct"]
    wings = result.data["wings batching"]
    # Batching reduces the number of network packets for the same workload.
    assert wings["network_packets"] < direct["network_packets"]
    # And does not collapse throughput.
    assert wings["throughput"] > 0.3 * direct["throughput"]
