"""Million-session user sweep on the aggregated client model.

Expected shape of the ``--figure usersweep`` grid (open-loop aggregated
generators, parallel shard execution, zipfian(0.99)):

* every cell — including sessions = 10^6 at 64 shards — runs to
  completion at smoke scale, because the simulated work per cell is
  bounded by the scale preset's op budget, not the session population;
* every cell's merged history passes the full ``check_all`` verification
  (stamped into the artifact): growing the synthetic population must not
  cost protocol fidelity;
* the completed-op count is identical across the session axis (the
  budget is population-independent), so the sweep isolates the cost of
  *representing* more users from the cost of *simulating* more work.
"""

from __future__ import annotations

from repro.bench.experiments import FIGURES, USER_SWEEP_SESSIONS, USER_SWEEP_SHARD_COUNTS


def test_usersweep_figure_shape(run_once, scale, jobs):
    result = run_once(FIGURES["usersweep"].parts[0], scale=scale, jobs=jobs)
    print()
    print(result.table())

    budgets = set()
    for sessions in USER_SWEEP_SESSIONS:
        for shards in USER_SWEEP_SHARD_COUNTS:
            cell = result.data[(sessions, shards)]
            assert cell["check_all_ok"], (sessions, shards, cell["checks"])
            assert cell["completed_ops"] > 0
            assert cell["delivered_ops_s"] > 0
            budgets.add(cell["completed_ops"])

    # The op budget is fixed by the scale preset: the million-session cell
    # completes exactly as many operations as the thousand-session cell.
    assert len(budgets) == 1, budgets
    assert "check_all_ok=True" in result.notes
