"""E8 — the campaign subsystem (persistent proof store).

Runs two campaigns over six designs against one persistent proof
store: cold (fills the store) and warm (should answer from the disk
tier).  Shape checks:

* the verdict mix is identical in both modes — caching changes cost,
  never answers;
* the warm rerun is answered from the disk store and is faster than
  the cold campaign (no fixed ratio: a cold campaign over six small
  designs is tens of milliseconds, so the warm run's fixed costs
  bound how far below it a rerun can get).
"""

from _experiments import run_e8


def test_e8_campaign(benchmark):
    table = benchmark.pedantic(run_e8, rounds=1, iterations=1)
    print()
    print(table.to_text())
    rows = {row[0]: row for row in table.rows}
    cold = rows["cold store"]
    warm = rows["warm store"]

    # Verdicts are mode-independent.  (Cells are stored formatted.)
    _mode, _wall, proven, violated, unknown, _hits = warm
    assert (proven, violated, unknown) == (cold[2], cold[3], cold[4])

    # Cold run touched the solver, not the store.
    assert int(cold[5]) == 0

    # The warm rerun answers from the persistent tier, and faster.
    assert int(warm[5]) > 0, "warm campaign produced no disk hits"
    assert float(warm[1]) < float(cold[1])
