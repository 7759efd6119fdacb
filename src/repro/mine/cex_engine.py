"""CEX-guided candidate ranking (the analytical core of the Fig. 2 flow).

Given the induction-step counterexample's *pre-state* — the arbitrary,
typically unreachable state the inductive step started from — a useful
strengthening invariant must (a) be *violated by that pre-state*, so
assuming it rules the CEX out, and (b) hold on actual reachable states.

The engine takes the full candidate pool from the static synthesizer,
evaluates every candidate on the pre-state, and reorders: candidates that
kill the CEX get a large boost, candidates the CEX satisfies are almost
useless for this failure and sink.  This mirrors exactly what the paper's
LLM does when it looks at Fig. 3 and says "count1 != count2 at the start
of the window — add `count1 == count2`"."""

from __future__ import annotations

from repro.ir import expr as E
from repro.ir.system import TransitionSystem
from repro.mine.candidates import Candidate, state_predicate


def candidate_holds_on(system: TransitionSystem, sva_body: str,
                       env: dict[str, int]) -> bool | None:
    """Evaluate a candidate body on a single state valuation.

    Returns None when the candidate has no single-state predicate (see
    :func:`~repro.mine.candidates.state_predicate`) or mentions a
    signal ``env`` does not value.
    """
    good = state_predicate(system, sva_body)
    if good is None or not E.support(good) <= set(env):
        return None
    return E.evaluate(good, env) == 1


def rank_for_cex(system: TransitionSystem,
                 pool: list[Candidate],
                 pre_state: dict[str, int]) -> list[Candidate]:
    """Reorder the candidate pool against an induction pre-state."""
    ranked: list[Candidate] = []
    for c in pool:
        holds = candidate_holds_on(system, c.sva, pre_state)
        boosted = Candidate(sva=c.sva, kind=c.kind, score=c.score,
                            rationale=c.rationale, signals=c.signals)
        if holds is False:
            boosted.score = min(1.5, c.score + 0.5)
            boosted.rationale = (
                f"the counterexample's pre-state violates this relation "
                f"({c.rationale})")
        elif holds is True:
            boosted.score = c.score * 0.3
            boosted.rationale += \
                " (note: the counterexample already satisfies this)"
        ranked.append(boosted)
    ranked.sort(key=lambda c: -c.score)
    return ranked
