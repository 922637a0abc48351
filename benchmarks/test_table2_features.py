"""Table 2: read/write feature comparison of the evaluated systems."""

from __future__ import annotations

from repro.bench.experiments import FIGURES


def test_table2_feature_matrix(run_once):
    result = run_once(FIGURES["table2"].parts[0])
    print()
    print(result.table())

    hermes = result.data["hermes"]
    craq = result.data["craq"]
    zab = result.data["zab"]
    derecho = result.data["derecho"]

    # Hermes: linearizable, local reads, inter-key concurrent, decentralized, 1 RTT.
    assert hermes.consistency == "linearizable"
    assert hermes.local_reads and hermes.decentralized_writes
    assert hermes.inter_key_concurrent_writes
    assert hermes.write_latency_rtt == "1"

    # CRAQ: linearizable local reads but centralized O(n) writes.
    assert craq.local_reads and not craq.decentralized_writes
    assert craq.write_latency_rtt == "O(n)"

    # ZAB: sequentially consistent local reads, serialized writes.
    assert zab.consistency == "sequential"
    assert not zab.inter_key_concurrent_writes

    # Derecho: totally ordered (no inter-key concurrency).
    assert not derecho.inter_key_concurrent_writes
