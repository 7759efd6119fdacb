"""Houdini-style inductive fixpoint over candidate assertion sets.

Given a set of candidate invariants, find the maximal subset whose
*conjunction* is k-inductive (every survivor is then individually proven,
since the conjunction's base and step cases passed).  The algorithm is
the classic Houdini loop adapted to k-induction, decisive question first:

0. **first step** — k-induction of the whole conjunction at k=1.  When
   it proves, every candidate is proven after one query.  That is the
   answer the screen below would have led to: a conjunction that passes
   its base case and is 1-inductive holds on every reachable state, so
   the screen could only have answered BOUNDED_OK and dropped nothing;
1. **BMC screen** — asked only when the first step did not prove:
   bounded check of the conjunction from the initial state; any
   candidate observed false in a counterexample is certainly not an
   invariant and is dropped (these are the hallucinated/wrong assertions
   the paper warns about);
2. **step fixpoint** — attempt the inductive step of the conjunction;
   when it fails, evaluate each candidate on the *last frame* of the step
   counterexample and drop the falsified ones; repeat until the step
   passes (survivors proven) or the set empties.  When the screen dropped
   nothing, the first round here is the query of step 0 — same set, same
   k — and its answer is reused, not asked again.

Dropping only ever removes candidates falsified by a concrete model, so
the procedure is sound and reaches the unique maximal inductive subset.
Proven and dropped sets are exactly those of the screen-then-step order
(``tests/test_flows.py`` keeps it as the differential reference); only
the number of queries asked differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import IRError
from repro.ir import expr as E
from repro.ir.system import TransitionSystem
from repro.mc.cache import ResultCache, run_cached
from repro.mc.property import SafetyProperty
from repro.mc.result import CheckResult, ProofStats, Status
from repro.trace.trace import Trace


@dataclass
class HoudiniResult:
    """Outcome of one Houdini run; ``rounds`` counts the conjunction
    queries asked, and ``answer`` is the PROVEN answer for the
    conjunction of ``proven`` (None when nothing was proven)."""

    proven: list[SafetyProperty]
    dropped: list[tuple[SafetyProperty, str]]  # (candidate, reason)
    k: int = 0
    rounds: int = 0
    stats: ProofStats = field(default_factory=ProofStats)
    answer: CheckResult | None = None


def houdini_prove(system: TransitionSystem,
                  candidates: list[SafetyProperty],
                  max_k: int = 3,
                  bmc_bound: int = 10,
                  lemmas: list[tuple[E.Expr, int]] | None = None,
                  max_rounds: int = 25,
                  cache: ResultCache | None = None) -> HoudiniResult:
    """Run the Houdini fixpoint; see the module docstring.

    ``lemmas`` are previously proven invariants assumed throughout (they
    only ever help).  ``max_k`` bounds the induction depth tried for the
    conjunction — each k runs its own drop-to-fixpoint loop.
    ``max_rounds`` budgets the screen rounds plus the step rounds; the
    first step is asked up front only when that budget reaches a step
    round.  ``cache`` memoizes every conjunction query across runs: a
    repeated run over the same set is answered from it.  Within one run
    no query repeats — the screen re-runs only after a drop, on a
    different set.
    """
    stats = ProofStats()
    dropped: list[tuple[SafetyProperty, str]] = []
    active = list(candidates)
    asked = 0

    def ask(strategy: str, options: dict) -> CheckResult:
        nonlocal asked
        asked += 1
        result = run_cached(strategy, system, _conjoin(active), options,
                            lemmas=lemmas, cache=cache)
        stats.accumulate(result.stats)
        return result

    # Step 0: the whole conjunction's k=1 step usually decides the run.
    first_step: CheckResult | None = None
    if active and max_k >= 1 and max_rounds >= 2:
        first_step = ask("k_induction", _step_options(1))
        if first_step.status is Status.PROVEN:
            return HoudiniResult(active, [], k=1, rounds=asked, stats=stats,
                                 answer=first_step)

    # BMC screen of the conjunction (drop real violations).
    rounds = 0  # position in the screen-then-step budget
    while active:
        rounds += 1
        if rounds > max_rounds:
            break
        result = ask("bmc", {"bound": bmc_bound})
        if result.status is not Status.VIOLATED:
            break
        first_step = None  # asked of a set that no longer stands
        active, newly_dropped = _drop_falsified(
            system, active, result.cex, at_time=result.k,
            reason=f"falsified from reset at cycle {result.k}")
        dropped.extend(newly_dropped)

    if not active:
        return HoudiniResult([], dropped, rounds=asked, stats=stats)

    # Step fixpoint with increasing k.
    for k in range(1, max_k + 1):
        while active:
            rounds += 1
            if rounds > max_rounds:
                return HoudiniResult([], dropped + [
                    (c, "houdini round budget exhausted") for c in active],
                    k=k, rounds=asked, stats=stats)
            if first_step is not None:
                result, first_step = first_step, None
            else:
                result = ask("k_induction", _step_options(k))
            if result.status is Status.PROVEN:
                return HoudiniResult(active, dropped, k=k, rounds=asked,
                                     stats=stats, answer=result)
            if result.status is Status.VIOLATED:
                # Should have been caught by the BMC screen; drop and go on.
                active, newly_dropped = _drop_falsified(
                    system, active, result.cex, at_time=result.k,
                    reason="violated in deeper base case")
                dropped.extend(newly_dropped)
                continue
            assert result.step_cex is not None
            survivors, newly_dropped = _drop_falsified(
                system, active, result.step_cex,
                at_time=result.step_cex.length - 1,
                reason=f"not inductive at k={k}")
            if not newly_dropped:
                # Nothing to drop at this k: the conjunction needs deeper
                # induction, not a smaller set.
                break
            active = survivors
            dropped.extend(newly_dropped)
        if not active:
            break

    remaining = [(c, f"no inductive subset within k={max_k}")
                 for c in active]
    return HoudiniResult([], dropped + remaining, k=max_k, rounds=asked,
                         stats=stats)


def _step_options(k: int) -> dict:
    return {"max_k": k, "keep_last_step_cex": True}


def _conjoin(props: list[SafetyProperty]) -> SafetyProperty:
    if len(props) == 1:
        return props[0]
    return props[0].conjoined_with(props[1:], name="houdini_conjunction")


def _drop_falsified(system: TransitionSystem,
                    active: list[SafetyProperty],
                    trace: Trace | None,
                    at_time: int,
                    reason: str
                    ) -> tuple[list[SafetyProperty],
                               list[tuple[SafetyProperty, str]]]:
    """Partition candidates by their value on one trace frame."""
    if trace is None:
        return active, []
    env = {s.name: trace.value(s.name, at_time)
           for s in trace.signals if s.kind in ("input", "state")}
    survivors: list[SafetyProperty] = []
    newly_dropped: list[tuple[SafetyProperty, str]] = []
    for prop in active:
        resolved = system.resolve_defines(prop.bad)
        try:
            is_bad = E.evaluate(resolved, env) == 1
        except IRError:
            is_bad = False  # monitors outside this trace: keep candidate
        if is_bad:
            newly_dropped.append((prop, reason))
        else:
            survivors.append(prop)
    if not newly_dropped and survivors:
        # The conjunction failed but no single candidate evaluates bad at
        # the chosen frame (e.g. the failure involves warm-up monitors).
        # Drop the lowest-priority candidate to guarantee progress.
        victim = survivors.pop()
        newly_dropped.append((victim, reason + " (tie-break drop)"))
    return survivors, newly_dropped
