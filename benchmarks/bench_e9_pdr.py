"""E9 — IC3/PDR vs k-induction, seeded (mined lemmas) vs unseeded.

Runs the three engine configurations over the invariant-shaped targets
and checks the headline claims:

* PDR proves needs-helper properties (one-hot pointer/state shapes)
  that k-induction cannot close at the property's default depth;
* seeding from the mined candidate pool extends that reach to
  relational invariants (lock-step counter equality, FIFO occupancy),
  closing cases plain PDR gives up on within the same budgets — or
  closing them with strictly fewer solver conflicts;
* no configuration ever contradicts another's conclusive verdict.
"""

from _experiments import run_e9


def test_e9_pdr(benchmark):
    table = benchmark.pedantic(run_e9, rounds=1, iterations=1)
    print()
    print(table.to_text())
    rows = {}
    for case, strategy, status, _k, _t, conflicts, _props in table.rows:
        rows[(case, strategy)] = (status, int(conflicts))

    def status(case, strategy):
        return rows[(case, strategy)][0]

    def conflicts(case, strategy):
        return rows[(case, strategy)][1]

    # PDR closes the needs-helper one-hot cases k-induction cannot.
    for case in ("traffic_onehot.mutual_exclusion",
                 "rr_arbiter.grant_onehot0"):
        assert status(case, "k_induction") == "unknown"
        assert status(case, "pdr") == "proven"
        assert status(case, "pdr_seeded") == "proven"

    # Seeding closes the relational cases plain PDR gives up on — or,
    # when both close, does it with no more conflicts.  The lock-step
    # counters are also beyond k-induction at the default depth: the
    # acceptance case.
    assert status("sync_counters.equal_count", "k_induction") == \
        "unknown"
    for case in ("sync_counters.equal_count",
                 "fifo_ctrl.count_matches_pointers"):
        assert status(case, "pdr_seeded") == "proven"
        if status(case, "pdr") == "proven":
            assert conflicts(case, "pdr_seeded") <= \
                conflicts(case, "pdr")

    # Conclusive verdicts never contradict across configurations.
    for (case, _strategy), (verdict, _c) in rows.items():
        others = {rows[(case, s)][0]
                  for s in ("k_induction", "pdr", "pdr_seeded")}
        assert not ({"proven", "violated"} <= others), case
