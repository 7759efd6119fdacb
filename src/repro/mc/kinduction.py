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
from repro.mc.frame import FrameSolver, StatsTimer
from repro.mc.property import SafetyProperty
from repro.mc.result import CheckResult, ProofStats, Status
from repro.trace.trace import Trace, TraceKind


@dataclass
class KInductionOptions:
    """Tuning for a k-induction run."""

    max_k: int = 10
    simple_path: bool = False
    keep_last_step_cex: bool = True


def k_induction(system: TransitionSystem, prop: SafetyProperty,
                options: KInductionOptions | None = None,
                lemmas: list[tuple[E.Expr, int]] | None = None
                ) -> CheckResult:
    """Prove ``prop`` by induction with increasing depth.

    Returns PROVEN (with the converging ``k``), VIOLATED (base-case CEX,
    a real bug), or UNKNOWN after ``max_k`` with the last induction-step
    counterexample attached for diagnosis — the input to the paper's
    repair flow.
    """
    opts = options or KInductionOptions()
    resolved = prop.resolved_against(system)
    stats = ProofStats()

    base = FrameSolver(system, lemmas)
    step = FrameSolver(system, lemmas)
    step_cex: Trace | None = None

    with StatsTimer(stats):
        # ---- time 0 plumbing -----------------------------------------
        # The base case is rooted in init; the step case is not, so its
        # frames assume every lemma (see repro.mc.frame).
        base.add_init()
        step.add_constraints(0)

        base_depth = 0  # frames already unrolled in the base solver

        for k in range(1, opts.max_k + 1):
            stats.max_depth = k
            # ---- base case: no bad within the first k+valid_from cycles.
            # (The extra valid_from padding closes the warm-up gap between
            # the base window and the first step-case application.)
            base_bound = k + resolved.valid_from
            while base_depth < base_bound:
                t = base_depth
                if t > 0:
                    base.add_frame(t - 1)
                if t >= resolved.valid_from:
                    if base.solve([base.assumption_at(resolved.bad, t)]):
                        trace = base.extract_trace(
                            t + 1, TraceKind.BMC_CEX,
                            property_name=prop.name,
                            note=f"base case fails at cycle {t}")
                        _collect(stats, base, step)
                        return CheckResult(
                            prop.name, Status.VIOLATED, k=t, cex=trace,
                            stats=stats,
                            detail=f"base-case counterexample at depth {t}")
                base_depth += 1

            # ---- inductive step: good at 0..k-1, bad at k ---------------
            step.add_frame(k - 1)
            step.assert_at(resolved.good, k - 1)
            if opts.simple_path:
                for earlier in range(k):
                    step.cnf.assert_lit(step.state_distinct(earlier, k))
            if not step.solve([step.assumption_at(resolved.bad, k)]):
                _collect(stats, base, step)
                return CheckResult(
                    prop.name, Status.PROVEN, k=k, step_cex=None,
                    stats=stats, detail=f"induction converged at k={k}")
            if opts.keep_last_step_cex:
                step_cex = step.extract_trace(
                    k + 1, TraceKind.STEP_CEX,
                    property_name=prop.name,
                    note=f"inductive step fails at k={k}")

    _collect(stats, base, step)
    return CheckResult(prop.name, Status.UNKNOWN, k=opts.max_k,
                       step_cex=step_cex, stats=stats,
                       detail=f"induction did not converge by k={opts.max_k}")


def _collect(stats: ProofStats, base: FrameSolver,
             step: FrameSolver) -> None:
    for frame in (base, step):
        stats.merge_from(frame.stats_snapshot())
