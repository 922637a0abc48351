"""Transaction-grid contention surface: ``txn_fraction`` x ``txn_keys``.

Expected shape of the ``--figure txngrid`` grid (fixed 4 coupled shards,
50% cross-shard probability, zipfian(0.99) contention, no-wait locks):

* at fixed ``txn_fraction``, the **abort rate rises monotonically with
  ``txn_keys``** — every extra key is another no-wait lock the
  transaction must win, and another chance to span a second shard and
  hold its locks across the full 2PC round;
* at fixed ``txn_keys``, raising ``txn_fraction`` grows the absolute
  abort count — more transactions contend for the same hot locks;
* every cell commits transactions and exercises the cross-shard path.
"""

from __future__ import annotations

from repro.bench.experiments import FIGURES, TXN_FRACTION_POINTS, TXN_KEYS_POINTS, sweep


def test_txngrid_figure_shape(run_once, scale, jobs):
    result = run_once(sweep, FIGURES["txngrid"].parts[0], scale, jobs=jobs)
    print()
    print(result.table())

    for fraction in TXN_FRACTION_POINTS:
        for keys in TXN_KEYS_POINTS:
            cell = result.data[(fraction, keys)]
            assert cell["txns_committed"] > 0, (fraction, keys)
            assert cell["txns_cross_shard"] > 0, (fraction, keys)

    # Abort rate rises monotonically with keys per transaction.
    for fraction in TXN_FRACTION_POINTS:
        rates = [result.data[(fraction, k)]["abort_rate"] for k in TXN_KEYS_POINTS]
        assert rates == sorted(rates), (fraction, rates)
        assert rates[-1] > rates[0], (fraction, rates)

    # Absolute abort volume grows with the transaction fraction.
    for keys in TXN_KEYS_POINTS:
        aborts = [result.data[(f, keys)]["txns_aborted"] for f in TXN_FRACTION_POINTS]
        assert aborts == sorted(aborts), (keys, aborts)
        assert aborts[-1] > aborts[0], (keys, aborts)
