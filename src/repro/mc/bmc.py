"""Bounded model checking.

BMC finds real, initial-state-rooted counterexamples: the formula
``init ∧ trans(0..t-1) ∧ constraints ∧ bad@t`` is checked for each depth
``t`` up to the bound, reusing one incremental solver (the ``bad@t`` check
rides on an assumption literal so it never pollutes later depths).

As the paper's background section notes, a BMC pass guarantees correctness
only up to the analysis bound — it is the *base case* machinery that
k-induction builds on to get unbounded proofs.
"""

from __future__ import annotations

from repro.ir import expr as E
from repro.ir.system import TransitionSystem
from repro.mc.frame import FrameSolver, StatsTimer
from repro.mc.property import SafetyProperty
from repro.mc.result import CheckResult, ProofStats, Status
from repro.sat.solver import Solver
from repro.trace.trace import TraceKind


def bmc(system: TransitionSystem, prop: SafetyProperty, bound: int,
        lemmas: list[tuple[E.Expr, int]] | None = None,
        conflict_budget: int | None = None,
        solver: Solver | None = None) -> CheckResult:
    """Search for a counterexample to ``prop`` within ``bound`` cycles.

    ``lemmas`` are ``(good_expr, valid_from)`` pairs *already proven*
    invariant; each is assumed at every cycle from its ``valid_from`` on
    (monitor warm-up cycles are exempt).  Returns VIOLATED with a trace,
    or BOUNDED_OK.

    ``conflict_budget`` (total SAT conflicts across the run) turns the
    search into a best-effort probe: when exhausted, the result is
    BOUNDED_OK with an 'inconclusive' note — fine for bug *hunting*,
    never used for proofs.

    ``solver`` backs the frame with another solver — the
    external-solver strategy runs this exact loop over a subprocess.
    """
    resolved = prop.resolved_against(system)
    stats = ProofStats()
    frame = FrameSolver(system, lemmas, solver=solver)
    with StatsTimer(stats):
        frame.add_init()
        for t in range(bound + 1):
            if t > 0:
                frame.add_frame(t - 1)
            stats.max_depth = t
            if t < resolved.valid_from:
                continue
            assumption = frame.assumption_at(resolved.bad, t)
            verdict = frame.solve_limited([assumption],
                                          conflict_budget=conflict_budget)
            if verdict is None:
                _merge(stats, frame)
                return CheckResult(
                    prop.name, Status.BOUNDED_OK, k=t, stats=stats,
                    detail=f"probe budget exhausted at depth {t} "
                           "(inconclusive)")
            if verdict:
                trace = frame.extract_trace(
                    t + 1, TraceKind.BMC_CEX,
                    property_name=prop.name,
                    note=f"bad at cycle {t}")
                _merge(stats, frame)
                return CheckResult(prop.name, Status.VIOLATED, k=t,
                                   cex=trace, stats=stats,
                                   detail=f"counterexample at depth {t}")
    _merge(stats, frame)
    return CheckResult(prop.name, Status.BOUNDED_OK, k=bound, stats=stats,
                       detail=f"no counterexample within {bound} cycles")


def _merge(stats: ProofStats, frame: FrameSolver) -> None:
    stats.merge_from(frame.stats_snapshot())


def bmc_probe(system: TransitionSystem, prop: SafetyProperty, bound: int,
              lemmas: list[tuple[E.Expr, int]] | None = None,
              conflict_budget: int = 4000) -> CheckResult:
    """Single-shot, budgeted bug probe.

    Unrolls the full window once and asks for *any* violation in it
    (one SAT query over the disjunction of per-cycle failures).  Real
    counterexamples — satisfiable queries — surface quickly; proving the
    absence of one within the window is deliberately cut off by the
    conflict budget, because callers use this as a cheap triage before
    more expensive reasoning, never as a proof.
    """
    resolved = prop.resolved_against(system)
    stats = ProofStats()
    frame = FrameSolver(system, lemmas)
    with StatsTimer(stats):
        frame.add_init()
        for t in range(1, bound + 1):
            frame.add_frame(t - 1)
        stats.max_depth = bound
        any_bad = frame.blaster.aig.or_many(
            frame.lit_at(resolved.bad, t)
            for t in range(resolved.valid_from, bound + 1))
        verdict = frame.solve_limited([frame.cnf.assumption(any_bad)],
                                      conflict_budget=conflict_budget)
    _merge(stats, frame)
    if verdict is None:
        return CheckResult(prop.name, Status.BOUNDED_OK, k=bound,
                           stats=stats,
                           detail="probe budget exhausted (inconclusive)")
    if not verdict:
        return CheckResult(prop.name, Status.BOUNDED_OK, k=bound,
                           stats=stats,
                           detail=f"no counterexample within {bound} cycles")
    # Locate the earliest failing cycle in the model for a tight trace.
    fail_at = bound
    for t in range(resolved.valid_from, bound + 1):
        if frame.cnf.lit_value(frame.lit_at(resolved.bad, t)):
            fail_at = t
            break
    trace = frame.extract_trace(fail_at + 1, TraceKind.BMC_CEX,
                                property_name=prop.name,
                                note=f"bad at cycle {fail_at}")
    return CheckResult(prop.name, Status.VIOLATED, k=fail_at, cex=trace,
                       stats=stats,
                       detail=f"counterexample at depth {fail_at}")
