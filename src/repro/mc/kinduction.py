"""k-induction — the proof method the paper's flows augment.

Induction with increasing depth ``k`` runs two checks per depth
(Section II-A of the paper):

* **base case** — with the initial-state constraint: no bad state is
  reachable in the first ``k`` cycles (a BMC query);
* **inductive step** — *without* the initial-state constraint: from any
  ``k`` consecutive good states, the next state is also good.

Because the step case starts from an arbitrary (possibly *unreachable*)
state, it can fail even for true properties; the counterexample it
produces is then not a bug but a witness of a too-weak induction
hypothesis.  That step CEX is exactly what the paper's Fig. 2 flow feeds
to the LLM, and proven helper assertions re-enter here as ``lemmas``
constraining every frame of both cases.

The optional simple-path constraint (all states in the step window
pairwise distinct) makes the method complete for finite systems at the
cost of quadratically many disequalities; the paper's designs do not need
it and the E6 ablation benchmark quantifies why.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir import expr as E
from repro.ir.system import TransitionSystem
from repro.mc.bmc import BaseCase
from repro.mc.frame import FrameSolver, StatsTimer
from repro.mc.property import SafetyProperty
from repro.mc.result import CheckResult, ProofStats, Status
from repro.trace.trace import Trace, TraceKind


@dataclass
class KInductionOptions:
    """Tuning for a k-induction run."""

    max_k: int = 10
    simple_path: bool = False


def k_induction(system: TransitionSystem, prop: SafetyProperty,
                options: KInductionOptions | None = None,
                lemmas: list[tuple[E.Expr, int]] | None = None,
                bound: int | None = None) -> CheckResult:
    """Prove ``prop`` by induction with increasing depth.

    Returns PROVEN (with the converging ``k``), VIOLATED (base-case CEX,
    a real bug), or UNKNOWN after ``max_k`` with the last induction-step
    counterexample attached for diagnosis — the input to the paper's
    repair flow.  When the step case gives up, the base case deepens
    on to ``bound`` cycles (if given): a deeper bug is VIOLATED, a
    clean search stays UNKNOWN with its step CEX.
    """
    opts = options or KInductionOptions()
    stats = ProofStats()
    step_cex: Trace | None = None

    def conclude(status: Status, k: int, detail: str,
                 **fields) -> CheckResult:
        for frame in (base.frame, step):
            stats.merge_from(frame.stats_snapshot())
        return CheckResult(prop.name, status, k=k, stats=stats,
                           detail=detail, **fields)

    def refuted() -> CheckResult:
        t = base.depth
        trace = base.trace(f"base case fails at cycle {t}")
        return conclude(Status.VIOLATED, t,
                        f"base-case counterexample at depth {t}", cex=trace)

    with StatsTimer(stats):
        # ---- time 0 plumbing -----------------------------------------
        # The base case is rooted in init; the step case is not, so its
        # frames assume every lemma (see repro.mc.frame).
        base = BaseCase(system, prop, lemmas)
        step = FrameSolver(system, lemmas)
        step.add_constraints(0)

        for k in range(1, opts.max_k + 1):
            stats.max_depth = k
            # ---- base case: no bad within the first k+valid_from cycles.
            # (The extra valid_from padding closes the warm-up gap between
            # the base window and the first step-case application.)
            if base.deepen(k + base.resolved.valid_from - 1):
                return refuted()

            # ---- inductive step: good at 0..k-1, bad at k ---------------
            step.add_frame(k - 1)
            step.assert_at(base.resolved.good, k - 1)
            if opts.simple_path:
                for earlier in range(k):
                    step.cnf.assert_lit(step.state_distinct(earlier, k))
            if not step.solve([step.assumption_at(base.resolved.bad, k)]):
                return conclude(Status.PROVEN, k,
                                f"induction converged at k={k}")
            step_cex = step.extract_trace(
                k + 1, TraceKind.STEP_CEX,
                property_name=prop.name,
                note=f"inductive step fails at k={k}")

        detail = f"induction did not converge by k={opts.max_k}"
        if bound is not None and bound > base.depth:
            found = base.deepen(bound)
            stats.max_depth = base.depth
            if found:
                return refuted()
            detail += f"; no counterexample within {bound} cycles"

    return conclude(Status.UNKNOWN, opts.max_k, detail, step_cex=step_cex)
