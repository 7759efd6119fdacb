"""E10 — solver hot-path micro-benchmark (perf-regression gate).

Times the CDCL core against the three workload shapes the PR's solver
rewrite targets — deep BMC over a width sweep (UNSAT at every depth,
free inputs so the frames do not fold to constants), a mixed
bounded/induction portfolio batch, and unseeded PDR (assumption-heavy
incremental queries) — and asserts the structural invariants the perf harness
relies on: verdicts are the expected ones, solver time is a subset of
wall time, and the propagation counters actually moved.

The numbers themselves are gated separately:
``scripts/check_bench_regression.py`` compares a fresh JSON dump of
this table against the committed baseline in
``benchmarks/baselines/bench_e10.json`` and fails on a >30%
propagations/sec regression.
"""

from _experiments import run_e10


def test_e10_solver(benchmark):
    table = benchmark.pedantic(run_e10, rounds=1, iterations=1)
    print()
    print(table.to_text())
    rows = {}
    for label, status, wall, solver_s, conflicts, props, pps, cps in \
            table.rows:
        rows[label] = (status, float(wall), float(solver_s),
                       int(conflicts), int(props), int(pps), int(cps))

    # Every workload shape ran, plus the aggregate row the regression
    # gate keys on and the paired instrumentation-overhead probes the
    # obs gate keys on.
    assert set(rows) == {"e1_bmc_w8", "e1_bmc_w16", "e1_bmc_w32",
                         "e7_portfolio_mix", "e9_pdr_unseeded", "TOTAL",
                         "obs_metrics_on", "obs_metrics_off"}

    # Verdict sanity: BMC holds at the bound everywhere, the portfolio
    # mix closes its induction target, PDR proves at least one case.
    for label in ("e1_bmc_w8", "e1_bmc_w16", "e1_bmc_w32"):
        assert rows[label][0] == "bounded_ok", label
    assert rows["e7_portfolio_mix"][0] == "bounded_ok/proven"
    assert "proven" in rows["e9_pdr_unseeded"][0]

    for label, (_s, wall, solver_s, _c, props, pps, _cps) in rows.items():
        if label == "TOTAL":
            continue
        # The solver must have done real work for the rates to mean
        # anything, and in-solver time can never exceed wall time.
        assert props > 0, label
        assert pps > 0, label
        assert solver_s <= wall + 1e-6, label

    # Width scaling: the BMC instance has free inputs, so it grows with
    # the datapath width and the propagation counts must too.
    assert rows["e1_bmc_w8"][4] < rows["e1_bmc_w16"][4] < \
        rows["e1_bmc_w32"][4]

    # The conflict-driven workloads exercise learning, not just BCP.
    assert rows["e7_portfolio_mix"][3] > 0
    assert rows["e9_pdr_unseeded"][3] > 0

    # The TOTAL row is the exact sum of the workload rows (the obs
    # overhead probes sit below the aggregate and stay out of it).
    assert rows["TOTAL"][4] == sum(
        r[4] for label, r in rows.items()
        if label not in ("TOTAL", "obs_metrics_on", "obs_metrics_off"))

    # The overhead probes re-ran the same portfolio mix: identical
    # deterministic work either way, so the propagation counts match
    # the timed e7 row exactly and the rates are sane.
    assert rows["obs_metrics_on"][4] == rows["obs_metrics_off"][4] == \
        rows["e7_portfolio_mix"][4]
    assert rows["obs_metrics_on"][5] > 0
    assert rows["obs_metrics_off"][5] > 0
