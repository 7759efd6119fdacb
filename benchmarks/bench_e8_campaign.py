"""E8 — the campaign subsystem (proof store + adaptive selection).

Runs three campaigns over six designs against one persistent proof
store: cold (fills the store), warm adaptive (should answer from the
disk tier and prune strategy races from mined history), and warm
full-portfolio (the job-count baseline).  Shape checks:

* verdict mix is identical in all three modes — adaptive selection and
  caching change cost, never answers;
* the warm rerun is answered from the disk store and is faster than
  the cold campaign (no fixed ratio: a cold campaign over six small
  designs is tens of milliseconds, so the warm run's fixed costs
  bound how far below it a rerun can get);
* adaptive selection dispatches strictly fewer strategy jobs than the
  full portfolio once the store is warm.
"""

from _experiments import run_e8


def test_e8_campaign(benchmark):
    table = benchmark.pedantic(run_e8, rounds=1, iterations=1)
    print()
    print(table.to_text())
    rows = {row[0]: row for row in table.rows}
    cold = rows["cold store (adaptive)"]
    warm = rows["warm store (adaptive)"]
    full = rows["warm store (full portfolio)"]

    # Verdicts are mode-independent.  (Cells are stored formatted.)
    for row in (cold, warm, full):
        _mode, _wall, proven, violated, unknown, *_ = row
        assert (proven, violated, unknown) == (cold[2], cold[3], cold[4])

    # Cold run touched the solver, not the store.
    assert int(cold[5]) == 0

    # The warm rerun answers from the persistent tier, and faster.
    assert int(warm[5]) > 0, "warm campaign produced no disk hits"
    assert float(warm[1]) < float(cold[1])

    # Adaptive selection prunes the race on a warm store.
    assert int(warm[6]) < int(warm[7]), \
        "adaptive campaign should dispatch fewer jobs than the portfolio"
    assert int(full[6]) == int(full[7])
