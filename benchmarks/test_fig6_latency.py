"""Figures 6a, 6b and 6c: latency analysis.

Paper results: Hermes' median latency is that of a local read and its tail
that of a 1-RTT write; CRAQ's write latencies are several times higher
(3.9-5.9x in Fig. 6b) because writes traverse the chain, and under skew its
*read* tail also degrades because dirty reads are redirected to the tail
node. ZAB's tail explodes with load because writes serialize on the leader.
"""

from __future__ import annotations

from dataclasses import replace

from repro.bench.experiments import FIGURES, sweep

FIG_6A, FIG_6B, FIG_6C = FIGURES["6"].parts


def at_load_points(client_counts):
    """Figure 6a's grid swept over other closed-loop clients-per-replica counts."""

    def cells(scale):
        # Each protocol's 1-client cell, re-run at every requested count.
        return [
            ((protocol, clients), replace(spec, clients_per_replica=clients))
            for (protocol, declared), spec in FIG_6A.cells(scale)
            if declared == 1
            for clients in client_counts
        ]

    return replace(FIG_6A, cells=cells)


def test_fig6a_latency_vs_throughput(run_once, scale, jobs):
    result = run_once(sweep, at_load_points((2, 6, 12)), scale, jobs=jobs)
    print()
    print(result.table())
    # At every load point Hermes' tail latency is well below CRAQ's and ZAB's
    # (paper: >= 3.6x at 5% writes; the simulated gap is >= 1.8x).
    for clients in (2, 6, 12):
        hermes_p99 = result.data[("hermes", clients)][2]
        craq_p99 = result.data[("craq", clients)][2]
        zab_p99 = result.data[("zab", clients)][2]
        assert craq_p99 > hermes_p99 * 1.8
        assert zab_p99 > hermes_p99 * 1.2
    # Hermes also reaches the highest peak throughput.
    assert result.data[("hermes", 12)][0] > result.data[("craq", 12)][0]


def test_fig6b_latency_uniform(run_once, scale, jobs):
    result = run_once(sweep, FIG_6B, scale, jobs=jobs)
    print()
    print(result.table())
    for ratio in (0.05, 0.20, 0.50):
        hermes = result.data[("hermes", ratio)]
        craq = result.data[("craq", ratio)]
        # Write latencies: CRAQ's chain costs several times Hermes' 1 RTT.
        assert craq["write_median_us"] > 1.8 * hermes["write_median_us"]
        assert craq["write_p99_us"] > 1.5 * hermes["write_p99_us"]
        # Read medians are local (same order of magnitude) for both.
        assert hermes["read_median_us"] < 10
        assert craq["read_median_us"] < 10


def test_fig6c_latency_skew(run_once, scale, jobs):
    result = run_once(sweep, FIG_6C, scale, jobs=jobs)
    print()
    print(result.table())
    for ratio in (0.20, 0.50):
        hermes = result.data[("hermes", ratio)]
        craq = result.data[("craq", ratio)]
        assert craq["write_median_us"] > 1.8 * hermes["write_median_us"]
    # Under skew CRAQ's tail reads suffer (dirty reads redirected to the tail):
    # the read tail grows steeply with the write ratio.
    assert result.data[("craq", 0.50)]["read_p99_us"] > result.data[("craq", 0.01)]["read_p99_us"]


def test_fig6c_skew_hurts_craq_reads_more_than_uniform(run_once, scale, jobs):
    def run():
        uniform = sweep(FIG_6B, scale, seed=3, jobs=jobs)
        skewed = sweep(FIG_6C, scale, seed=3, jobs=jobs)
        return uniform, skewed

    uniform, skewed = run_once(run)
    craq_uniform = uniform.data[("craq", 0.20)]["read_p99_us"]
    craq_skewed = skewed.data[("craq", 0.20)]["read_p99_us"]
    print()
    print(f"CRAQ read p99 at 20% writes: uniform={craq_uniform:.1f}us zipfian={craq_skewed:.1f}us")
    assert craq_skewed > craq_uniform
