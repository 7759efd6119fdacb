"""Shared experiment drivers for the benchmark suite.

Each ``run_*`` function regenerates one of the paper's artifacts (figure,
listing, or Results-section claim) and returns a
:class:`~repro.report.tables.Table` whose rows are the reproduction's
measured counterpart.  The ``bench_*`` pytest files time these drivers;
``python benchmarks/run_experiments.py`` renders all tables to markdown
for EXPERIMENTS.md.
"""

from __future__ import annotations

import time

from repro.designs import get_design
from repro.flow.session import VerificationSession
from repro.genai.personas import PAPER_MODELS
from repro.hdl.elaborate import elaborate
from repro.mc.engine import EngineConfig, ProofEngine
from repro.mc.result import Status
from repro.report import Table
from repro.sva.compile import MonitorContext

SEED = 1


# ---------------------------------------------------------------------------
# E1 — Listings 1-3 + Fig. 3: the synchronized-counters case study
# ---------------------------------------------------------------------------

def run_e1() -> Table:
    table = Table(["step", "status", "k", "proof time (s)",
                   "SAT conflicts"],
                  title="E1: sync_counters equal_count "
                        "(paper Listings 1-3, Figs. 2-3)")
    session = VerificationSession(get_design("sync_counters"),
                                  model="gpt-4o", seed=SEED)
    baseline = session.prove_direct("equal_count")
    table.add_row("plain k-induction", baseline.status.value, baseline.k,
                  baseline.stats.wall_seconds, baseline.stats.conflicts)
    assert baseline.status is Status.UNKNOWN
    repair = session.repair("equal_count")
    assert repair.converged and repair.final is not None
    table.add_row("repair flow (LLM helper)", repair.final.status.value,
                  repair.final.k, repair.final.stats.wall_seconds,
                  repair.final.stats.conflicts)
    helper_text = "; ".join(
        " ".join(h.source_text.split()) for h in repair.helpers)
    table.add_row("helper used", helper_text[:46], "-", "-", "-")
    return table


# ---------------------------------------------------------------------------
# E2 — Fig. 1 lemma-generation flow across the suite
# ---------------------------------------------------------------------------

E2_CASES = [
    ("sync_counters", ["equal_count"]),
    ("fifo_ctrl", ["occupancy_bound", "empty_means_zero"]),
    ("lfsr16", ["never_zero"]),
    ("shift_pipe", ["stage_consistency"]),
    ("updown_counter", ["upper_bound"]),
]


def run_e2(model: str = "gpt-4o") -> Table:
    table = Table(["design", "emitted", "proven lemmas", "target",
                   "without", "with", "effect"],
                  title=f"E2: lemma-generation flow (Fig. 1), {model}")
    for design_name, targets in E2_CASES:
        session = VerificationSession(get_design(design_name),
                                      model=model, seed=SEED)
        result = session.lemma_flow(targets=targets)
        for comparison in result.targets:
            if comparison.enabled_proof:
                effect = "enabled proof"
            elif comparison.speedup > 1.05:
                effect = f"x{comparison.speedup:.1f} faster"
            else:
                effect = "-"
            table.add_row(design_name, result.stats.assertions_emitted,
                          len(result.lemmas), comparison.name,
                          comparison.without.status.value,
                          comparison.with_lemmas.status.value, effect)
    return table


# ---------------------------------------------------------------------------
# E3 — Fig. 2 induction-repair flow across the induction-failing suite
# ---------------------------------------------------------------------------

E3_CASES = [
    ("sync_counters", "equal_count"),
    ("fifo_ctrl", "occupancy_bound"),
    ("fifo_ctrl", "empty_means_zero"),
    ("rr_arbiter", "grant_onehot0"),
    ("traffic_onehot", "mutual_exclusion"),
    ("ecc_pipeline", "no_error_clean"),
]


def run_e3(model: str = "gpt-4o") -> Table:
    table = Table(["design.property", "status", "iters", "helpers",
                   "final k", "llm (s)", "proof (s)"],
                  title=f"E3: induction-repair flow (Fig. 2), {model}")
    for design_name, prop_name in E3_CASES:
        session = VerificationSession(get_design(design_name),
                                      model=model, seed=SEED)
        result = session.repair(prop_name)
        table.add_row(f"{design_name}.{prop_name}", result.status.value,
                      len(result.iterations), len(result.helpers),
                      result.final.k if result.final else "-",
                      result.stats.llm_latency_s,
                      result.stats.proof_wall_s)
    # The seeded-bug control: the flow must report the violation.
    session = VerificationSession(get_design("sync_counters_bug"),
                                  model=model, seed=SEED)
    result = session.repair("counters_equal")
    table.add_row("sync_counters_bug.counters_equal", result.status.value,
                  len(result.iterations), len(result.helpers), "-",
                  result.stats.llm_latency_s, result.stats.proof_wall_s)
    return table


# ---------------------------------------------------------------------------
# E4 — Section V model comparison
# ---------------------------------------------------------------------------

E4_CASES = [
    ("sync_counters", "equal_count"),
    ("fifo_ctrl", "occupancy_bound"),
    ("traffic_onehot", "mutual_exclusion"),
]
E4_SEEDS = (0, 1, 2)


def run_e4() -> Table:
    table = Table(["model", "emitted", "parse ok", "resolve ok",
                   "proven", "hallucination rate", "converged",
                   "avg llm (s)"],
                  title="E4: assertion quality by model (paper Sec. V)")
    for model in PAPER_MODELS:
        emitted = parsed = resolved = proven = converged = runs = 0
        latency = 0.0
        for design_name, prop_name in E4_CASES:
            for seed in E4_SEEDS:
                session = VerificationSession(get_design(design_name),
                                              model=model, seed=seed)
                result = session.repair(prop_name)
                runs += 1
                emitted += result.stats.assertions_emitted
                parsed += result.stats.assertions_parsed
                resolved += result.stats.assertions_resolved
                proven += result.stats.assertions_proven
                converged += int(result.converged)
                latency += result.stats.llm_latency_s
        halluc = 1.0 - (resolved / emitted) if emitted else 0.0
        table.add_row(model, emitted, parsed, resolved, proven,
                      f"{halluc:.2f}", f"{converged}/{runs}",
                      latency / max(runs, 1))
    return table


# ---------------------------------------------------------------------------
# E5 — "faster proof for complex properties": width sweep + ECC depth
# ---------------------------------------------------------------------------

E5_WIDTHS = (8, 16, 32, 48)


def run_e5() -> Table:
    table = Table(["case", "without helper", "t (s)", "with helper",
                   "t (s)", "effect"],
                  title="E5: proof effort, helper vs none (paper Sec. V)")
    design = get_design("sync_counters")
    for width in E5_WIDTHS:
        system = elaborate(design.rtl, params={"W": width},
                           name=f"sync{width}")
        ctx = MonitorContext(system)
        target = ctx.add("&count1 |-> &count2", name="equal_count")
        helper = ctx.add("count1 == count2", name="helper")
        engine = ProofEngine(ctx.system, EngineConfig(max_k=2))
        t0 = time.perf_counter()
        without = engine.prove(target, max_k=2)
        t_without = time.perf_counter() - t0
        t0 = time.perf_counter()
        helper_result = engine.prove(helper, max_k=1)
        assert helper_result.status is Status.PROVEN
        with_helper = engine.prove(
            target, max_k=2, lemmas=[(helper.good, helper.valid_from)])
        t_with = time.perf_counter() - t0
        effect = "enabled proof" if (
            without.status is not Status.PROVEN
            and with_helper.status is Status.PROVEN) else "-"
        table.add_row(f"sync_counters W={width}", without.status.value,
                      t_without, with_helper.status.value, t_with, effect)
    # ECC: the helper closes the decode-correctness proof at k=1 where
    # the unaided induction must deepen to k=2.  We report both wall
    # times honestly: on this substrate the k=2 proof is affordable, so
    # the helper's measured benefit is convergence depth (and hence
    # scalability), which is the paper's qualitative claim.
    ecc = get_design("ecc_pipeline")
    ctx = MonitorContext(ecc.system())
    target = ctx.add(ecc.property_spec("single_error_corrected").sva,
                     name="single_error_corrected")
    engine = ProofEngine(ctx.system, EngineConfig(max_k=2))
    t0 = time.perf_counter()
    without = engine.prove(target, max_k=2)
    t_without = time.perf_counter() - t0
    name, sva = ecc.golden_helpers[0]
    helper = ctx.add(sva, name=name)
    t0 = time.perf_counter()
    helper_result = engine.prove(helper, max_k=1)
    assert helper_result.status is Status.PROVEN
    with_helper = engine.prove(
        target, max_k=1, lemmas=[(helper.good, helper.valid_from)])
    t_with = time.perf_counter() - t0
    table.add_row("ecc single_error_corrected",
                  f"{without.status.value} (k={without.k})", t_without,
                  f"{with_helper.status.value} (k={with_helper.k})",
                  t_with, "closes at k=1 (vs k=2)")
    return table


# ---------------------------------------------------------------------------
# E6 — k-induction background behaviour (paper Sec. II-A)
# ---------------------------------------------------------------------------

def run_e6() -> Table:
    table = Table(["case", "max_k", "status", "k", "t (s)"],
                  title="E6: induction depth and simple-path ablation")
    shift = get_design("shift_pipe")
    for max_k in (1, 2, 3):
        session = VerificationSession(shift)
        result = session.prove_direct("latency3", max_k=max_k)
        table.add_row("shift_pipe.latency3", max_k, result.status.value,
                      result.k, result.stats.wall_seconds)
    gray = get_design("gray_counter")
    session = VerificationSession(gray)
    result = session.prove_direct("unit_distance", max_k=2)
    table.add_row("gray_counter.unit_distance", 2, result.status.value,
                  result.k, result.stats.wall_seconds)
    # BMC alone only covers its bound (the paper's Sec. II-A point).
    sync = VerificationSession(get_design("sync_counters"))
    bounded = sync.bmc("counters_equal", bound=10)
    table.add_row("sync_counters BMC bound=10", "-", bounded.status.value,
                  bounded.k, bounded.stats.wall_seconds)
    return table


# ---------------------------------------------------------------------------
# A1 — Houdini ablation: screening and fixpoint vs trusting the LLM
# ---------------------------------------------------------------------------

def run_a1() -> Table:
    from repro.flow.houdini import houdini_prove
    table = Table(["candidate set", "input", "proven", "dropped",
                   "rounds", "t (s)"],
                  title="A1: Houdini fixpoint on mixed candidate sets")
    design = get_design("fifo_ctrl")
    sets = {
        "golden only": ["count == wptr - rptr"],
        "golden + true-but-noninductive": ["count == wptr - rptr",
                                           "count <= 5'd16"],
        "golden + false junk": ["count == wptr - rptr",
                                "count < 5'd2", "wptr == rptr"],
        "junk only": ["count < 5'd2", "wptr != rptr"],
    }
    for label, bodies in sets.items():
        ctx = MonitorContext(design.system())
        candidates = [ctx.add(b, name=f"c{i}")
                      for i, b in enumerate(bodies)]
        t0 = time.perf_counter()
        result = houdini_prove(ctx.system, candidates, max_k=2)
        table.add_row(label, len(bodies), len(result.proven),
                      len(result.dropped), result.rounds,
                      time.perf_counter() - t0)
    return table


# ---------------------------------------------------------------------------
# A2 — engine micro-measurements under the proof-time numbers
# ---------------------------------------------------------------------------

def run_a2() -> Table:
    from repro.aig.bitblast import BitBlaster
    from repro.ir import expr as E
    from repro.sat.solver import Solver
    table = Table(["micro-benchmark", "size", "t (s)"],
                  title="A2: engine micro-measurements")
    for width in (16, 32, 64):
        t0 = time.perf_counter()
        bb = BitBlaster()
        bb.blast(E.add(E.var("a", width), E.var("b", width)))
        table.add_row(f"bit-blast {width}-bit adder", bb.aig.num_ands,
                      time.perf_counter() - t0)
    t0 = time.perf_counter()
    solver = Solver()
    v = {}
    for p in range(7):
        for h in range(6):
            v[p, h] = solver.add_var()
    for p in range(7):
        solver.add_clause([v[p, h] for h in range(6)])
    for h in range(6):
        for p1 in range(7):
            for p2 in range(p1 + 1, 7):
                solver.add_clause([-v[p1, h], -v[p2, h]])
    assert solver.solve() is False
    table.add_row("CDCL pigeonhole PHP(7,6) UNSAT",
                  solver.stats.conflicts, time.perf_counter() - t0)
    session = VerificationSession(get_design("sync_counters"))
    t0 = time.perf_counter()
    session.bmc("counters_equal", bound=15)
    table.add_row("BMC 15 frames, 32-bit counters", 15,
                  time.perf_counter() - t0)
    return table


# ---------------------------------------------------------------------------
# E7 — portfolio verification service: parallel scheduler + result cache
# ---------------------------------------------------------------------------

def run_e7(jobs: int = 4) -> Table:
    """Batch-verify the counter_bank stress design three ways.

    Sequential baseline, parallel portfolio fan-out (``jobs`` worker
    processes), and a repeat of the parallel batch against the warm
    result cache.  Rows carry wall time, verdict mix, and cache traffic.
    """
    import os

    from repro.flow.session import BatchVerifyResult

    design = get_design("counter_bank")
    table = Table(["mode", "wall (s)", "proven", "violated", "other",
                   "cache hits", "speedup vs sequential"],
                  title=f"E7: portfolio verification service on "
                        f"{design.name} ({os.cpu_count()} cpus)")

    def add_row(label: str, batch: BatchVerifyResult, hits: int,
                baseline: float | None) -> None:
        proven = sum(1 for o in batch.outcomes
                     if o.status is Status.PROVEN)
        violated = sum(1 for o in batch.outcomes
                       if o.status is Status.VIOLATED)
        other = len(batch.outcomes) - proven - violated
        speedup = "-" if baseline is None else \
            f"x{baseline / max(batch.wall_seconds, 1e-9):.2f}"
        table.add_row(label, batch.wall_seconds, proven, violated, other,
                      hits, speedup)

    sequential = VerificationSession(design).verify_all(jobs=1)
    add_row("sequential (jobs=1)", sequential,
            sequential.cache_stats.hits, None)

    parallel_session = VerificationSession(design)
    parallel = parallel_session.verify_all(jobs=jobs)
    add_row(f"parallel (jobs={jobs})", parallel,
            parallel.cache_stats.hits, sequential.wall_seconds)

    cached = parallel_session.verify_all(jobs=jobs)
    add_row("parallel again (warm cache)", cached,
            cached.cache_stats.hits, sequential.wall_seconds)
    return table


# ---------------------------------------------------------------------------
# E8 — the campaign subsystem (persistent proof store)
# ---------------------------------------------------------------------------

E8_DESIGNS = ["updown_counter", "gray_counter", "lfsr16", "alu_accum",
              "sync_counters_bug", "shift_pipe"]


def run_e8(jobs: int = 1) -> Table:
    """Cross-design campaign: cold store, then warm store.

    One temp proof store serves two campaigns over the same designs: a
    cold run that fills the store and a warm rerun (every query should
    come back from the disk tier).
    """
    import tempfile

    from repro.campaign import CampaignReport
    from repro.flow.session import run_campaign

    table = Table(["mode", "wall (s)", "proven", "violated", "unknown",
                   "disk hits"],
                  title=f"E8: verification campaign over "
                        f"{len(E8_DESIGNS)} designs")

    def add_row(label: str, report: CampaignReport) -> None:
        table.add_row(label, report.wall_seconds, report.proved,
                      report.falsified, report.unknown,
                      report.cache.disk_hits)

    with tempfile.TemporaryDirectory() as cache_dir:
        cold = run_campaign(designs=E8_DESIGNS, cache_dir=cache_dir,
                            jobs=jobs, max_k=3)
        add_row("cold store", cold)
        warm = run_campaign(designs=E8_DESIGNS, cache_dir=cache_dir,
                            jobs=jobs, max_k=3)
        add_row("warm store", warm)
    return table


# ---------------------------------------------------------------------------
# E9 — IC3/PDR vs k-induction, seeded vs unseeded
# ---------------------------------------------------------------------------

E9_CASES = [
    ("traffic_onehot", "mutual_exclusion"),
    ("rr_arbiter", "grant_onehot0"),
    ("lfsr16", "never_zero"),
    ("sync_counters", "equal_count"),
    ("fifo_ctrl", "count_matches_pointers"),
]

#: Bounded engine knobs so the losing configurations give up in about a
#: second instead of dominating the benchmark's wall time.
E9_PDR_OPTS = {"max_frames": 18, "conflict_budget": 3000,
               "propagation_budget": 500_000, "gen_budget": 500,
               "max_obligations": 2000}


def run_e9() -> Table:
    """Engine comparison on needs-helper and invariant-shaped targets.

    For each case, three configurations run over one compiled system:
    k-induction at the property's default depth, plain PDR, and
    PDR seeded from the mined candidate pool.  Conflicts and propagations are the headline
    columns — the machine-independent effort measures the campaign
    report now carries per row — because wall time on this substrate
    mixes solver effort with Python overhead.
    """
    table = Table(["design.property", "strategy", "status", "k",
                   "t (s)", "conflicts", "propagations"],
                  title="E9: IC3/PDR vs k-induction, seeded vs unseeded")
    for design_name, prop_name in E9_CASES:
        design = get_design(design_name)
        ctx = MonitorContext(design.system())
        spec = design.property_spec(prop_name)
        prop = ctx.add(spec.sva, name=spec.name)
        engine = ProofEngine(ctx.system)
        runs = [
            ("k_induction", {"max_k": spec.max_k}),
            ("pdr", dict(E9_PDR_OPTS)),
            ("pdr_seeded", dict(E9_PDR_OPTS)),
        ]
        for strategy, options in runs:
            t0 = time.perf_counter()
            result = engine.check(prop, strategy, **options)
            elapsed = time.perf_counter() - t0
            table.add_row(f"{design_name}.{prop_name}", strategy,
                          result.status.value, result.k, elapsed,
                          result.stats.conflicts,
                          result.stats.propagations)
    return table


# ---------------------------------------------------------------------------
# E10 — solver hot-path micro-benchmark (the perf-regression gate)
# ---------------------------------------------------------------------------

#: Width sweep for the E1-shaped workload: a width-generic counter with
#: free inputs, so the unrolled datapath cannot fold to constants and
#: the solver's share grows with the width.
E10_WIDTHS = (8, 16, 32)
E10_BMC_CASE = ("updown_counter", "never_top", 16)  # design, prop, bound

#: E9-shaped PDR workload: the unseeded-PDR cases with the E9 budgets.
E10_PDR_CASES = [
    ("traffic_onehot", "mutual_exclusion"),
    ("lfsr16", "never_zero"),
    ("sync_counters", "equal_count"),
]


def run_e10() -> Table:
    """Solver hot-path micro-benchmark over E1/E7/E9-shaped workloads.

    Reports propagations/sec and conflicts/sec against *in-solver* wall
    time (``ProofStats.solve_seconds`` — Python/encoding overhead
    excluded, so the figure tracks the CDCL inner loops and nothing
    else) plus end-to-end wall clock per workload.  The JSON dump of
    this table is the committed perf baseline
    (``benchmarks/baselines/bench_e10.json``) that
    ``scripts/check_bench_regression.py`` gates CI against.
    """
    table = Table(["workload", "status", "wall (s)", "solver (s)",
                   "conflicts", "propagations", "props/sec",
                   "conflicts/sec"],
                  title="E10: solver hot-path micro-benchmark")

    totals = {"wall": 0.0, "solver": 0.0, "conflicts": 0, "props": 0}

    def add_workload(label: str, runs) -> None:
        t0 = time.perf_counter()
        statuses, conflicts, props, solver_s = [], 0, 0, 0.0
        for result in runs():
            statuses.append(result.status.value)
            conflicts += result.stats.conflicts
            props += result.stats.propagations
            solver_s += result.stats.solve_seconds
        wall = time.perf_counter() - t0
        status = "/".join(sorted(set(statuses)))
        table.add_row(label, status, wall, solver_s, conflicts, props,
                      int(props / max(solver_s, 1e-9)),
                      int(conflicts / max(solver_s, 1e-9)))
        totals["wall"] += wall
        totals["solver"] += solver_s
        totals["conflicts"] += conflicts
        totals["props"] += props

    # E1-shaped: deep BMC across a width sweep.  The input-free
    # lock-step counters of E1 fold to constants under functional frame
    # binding (34 propagations at any width), so the sweep runs on the
    # up/down counter: its `up`/`down` inputs keep every frame open,
    # every query is UNSAT (the solver grinds rather than guessing
    # lucky models), and conflicts and propagations grow with W.
    design_name, prop_name, bmc_bound = E10_BMC_CASE
    design = get_design(design_name)
    spec = design.property_spec(prop_name)
    for width in E10_WIDTHS:
        def bmc_runs(width=width):
            system = elaborate(design.rtl, params={"W": width},
                               name=f"{design_name}{width}")
            ctx = MonitorContext(system)
            prop = ctx.add(spec.sva, name=spec.name)
            engine = ProofEngine(ctx.system)
            yield engine.check(prop, "bmc", bound=bmc_bound)
        add_workload(f"e1_bmc_w{width}", bmc_runs)

    # E7-shaped: the bounded refutation / deep-induction mix a portfolio
    # batch dispatches, run in-process so only solver effort is timed.
    def e7_runs():
        for design_name, prop_name, strategy, options in [
                ("lfsr16", "never_zero", "bmc", {"bound": 24}),
                ("fifo_ctrl", "count_matches_pointers", "k_induction",
                 {"max_k": 10}),
                ("sync_counters", "equal_count", "bmc", {"bound": 20})]:
            d = get_design(design_name)
            ctx = MonitorContext(d.system())
            p = d.property_spec(prop_name)
            prop = ctx.add(p.sva, name=p.name)
            yield ProofEngine(ctx.system).check(prop, strategy, **options)
    add_workload("e7_portfolio_mix", e7_runs)

    # E9-shaped: unseeded PDR under the E9 budgets (assumption-heavy
    # incremental queries — the other hot-path profile).
    def e9_runs():
        for design_name, prop_name in E10_PDR_CASES:
            d = get_design(design_name)
            ctx = MonitorContext(d.system())
            p = d.property_spec(prop_name)
            prop = ctx.add(p.sva, name=p.name)
            yield ProofEngine(ctx.system).check(prop, "pdr",
                                                **E9_PDR_OPTS)
    add_workload("e9_pdr_unseeded", e9_runs)

    # The aggregate is the headline regression-gate figure: individual
    # workloads can be millisecond-scale and noisy, the total is not.
    table.add_row("TOTAL", "-", totals["wall"], totals["solver"],
                  totals["conflicts"], totals["props"],
                  int(totals["props"] / max(totals["solver"], 1e-9)),
                  int(totals["conflicts"] / max(totals["solver"], 1e-9)))

    # Observability pair: the e7-shaped mix with a journal writing
    # every check_start and check span record as JSONL to a scratch
    # directory ("on") and with none ("off"), interleaved (shared
    # thermal/JIT conditions) and best-of-5 per mode so scheduler noise
    # does not masquerade as overhead (the mix is ~0.1 s of solver time
    # per repetition, too short for three to settle).  The labels keep
    # the names scripts/check_bench_regression.py and the baselines key
    # on.  These rows sit BELOW the TOTAL, outside the headline gate;
    # the regression script fails CI when their props/sec ratio drops
    # under 0.95.  That ratio counts in-solver seconds only, where no
    # journal write lands, so it guards the solver's rate, not the cost
    # of writing records.
    import shutil
    import tempfile

    from repro.obs import journal as obs_journal

    best: dict[bool, tuple] = {}
    events_scratch = tempfile.mkdtemp(prefix="repro-e10-events-")
    try:
        for _rep in range(5):
            for enabled in (True, False):
                if enabled:
                    obs_journal.configure(events_scratch)
                else:
                    obs_journal.shutdown()
                t0 = time.perf_counter()
                conflicts, props, solver_s = 0, 0, 0.0
                for result in e7_runs():
                    conflicts += result.stats.conflicts
                    props += result.stats.propagations
                    solver_s += result.stats.solve_seconds
                wall = time.perf_counter() - t0
                rate = props / max(solver_s, 1e-9)
                if enabled not in best or rate > best[enabled][-1]:
                    best[enabled] = (wall, solver_s, conflicts, props,
                                     rate)
    finally:
        obs_journal.shutdown()
        shutil.rmtree(events_scratch, ignore_errors=True)
    for enabled, label in ((True, "obs_metrics_on"),
                           (False, "obs_metrics_off")):
        wall, solver_s, conflicts, props, rate = best[enabled]
        table.add_row(label, "-", wall, solver_s, conflicts, props,
                      int(rate),
                      int(conflicts / max(solver_s, 1e-9)))
    return table


# ---------------------------------------------------------------------------
# E11 — corpus campaign throughput: file import + cold vs warm store
# ---------------------------------------------------------------------------

E11_BMC_BOUND = 5     # keep the refuter shallow: throughput, not depth
E11_JOBS = 2


def run_e11() -> Table:
    """Designs/sec over the checked-in interchange corpus.

    Three phases: loading every ``corpus/`` file through the format
    readers, a cold campaign against an empty proof store, and a warm
    rerun against the store the cold pass filled (which should be
    answered almost entirely from cache).
    """
    import os
    import tempfile
    from pathlib import Path

    from repro.designs import load_corpus
    from repro.designs.registry import CORPUS_ENV
    from repro.flow.session import run_campaign

    corpus_dir = Path(__file__).resolve().parent.parent / "corpus"
    table = Table(["phase", "status", "wall (s)", "solver (s)",
                   "designs", "properties", "designs/sec"],
                  title="E11: corpus campaign throughput "
                        "(interchange import, cold vs warm store)")
    totals = {"wall": 0.0, "solver": 0.0, "designs": 0}

    t0 = time.perf_counter()
    designs = load_corpus(corpus_dir)
    load_wall = time.perf_counter() - t0
    n_designs = len(designs)
    n_props = sum(len(d.properties) for d in designs)
    table.add_row("load", "ok", load_wall, 0.0, n_designs, n_props,
                  n_designs / max(load_wall, 1e-9))
    totals["wall"] += load_wall
    totals["designs"] += n_designs

    saved = os.environ.get(CORPUS_ENV)
    os.environ[CORPUS_ENV] = str(corpus_dir)
    try:
        with tempfile.TemporaryDirectory() as cache_dir:
            for phase in ("campaign_cold", "campaign_warm"):
                t0 = time.perf_counter()
                report = run_campaign(
                    designs=[d.name for d in designs],
                    cache_dir=cache_dir, jobs=E11_JOBS,
                    bmc_bound=E11_BMC_BOUND)
                wall = time.perf_counter() - t0
                solver_s = report.phase_seconds.get("solve", 0.0)
                # A shallow BMC bound may legitimately miss a deep
                # expect=violated CEX; a *spurious* violation is a
                # correctness bug and taints the row status.
                spurious = sum(
                    1 for row in report.rows
                    if row.status == "violated"
                    and row.expect not in ("violated", "unknown"))
                status = "ok" if spurious == 0 \
                    else f"spurious={spurious}"
                if phase == "campaign_warm" and report.cache.hits == 0:
                    status = "cache_cold"   # warm rerun missed the store
                table.add_row(phase, status, wall, solver_s, n_designs,
                              len(report.rows),
                              n_designs / max(wall, 1e-9))
                totals["wall"] += wall
                totals["solver"] += solver_s
                totals["designs"] += n_designs
    finally:
        if saved is None:
            os.environ.pop(CORPUS_ENV, None)
        else:
            os.environ[CORPUS_ENV] = saved

    table.add_row("TOTAL", "-", totals["wall"], totals["solver"],
                  totals["designs"], 3 * n_props,
                  totals["designs"] / max(totals["wall"], 1e-9))
    return table


ALL_EXPERIMENTS = {
    "E1": run_e1,
    "E2": run_e2,
    "E3": run_e3,
    "E4": run_e4,
    "E5": run_e5,
    "E6": run_e6,
    "E7": run_e7,
    "E8": run_e8,
    "E9": run_e9,
    "E10": run_e10,
    "E11": run_e11,
    "A1": run_a1,
    "A2": run_a2,
}
