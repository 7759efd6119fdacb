"""The candidate funnel: what both flows do with an LLM response.

A response goes in, proven lemmas come out, and every snippet's fate is
booked on the way — once, for Fig. 1 and Fig. 2 alike:

2. extract SVA snippets from the response text;
3. parse + name-resolve each against the design (hallucination triage;
   the two rejections are counted apart: emitted >= parsed >= resolved);
4. compile the usable ones into the flow's shared
   :class:`~repro.sva.compile.MonitorContext`, drop any whose
   ``(structural_digest(good), valid_from)`` is already banked or
   repeats an earlier candidate of the response, and screen the rest on
   simulated reachable states;
5. Houdini over the survivors (plus the repair flow's target, under the
   banked lemmas): what it keeps is *proven* and enters the bank.

The bank is the flow run's only lemma set: each distinct lemma is held
once, in the order it was proven, and both flows assume exactly it.
"""

from __future__ import annotations

from repro.flow.houdini import houdini_prove
from repro.flow.stats import AssertionOutcome, FlowStats
from repro.genai.client import LLMResponse
from repro.genai.parse import extract_assertions, validate_assertions
from repro.ir import expr as E
from repro.mc.cache import ResultCache
from repro.mc.property import SafetyProperty
from repro.mc.result import CheckResult
from repro.sim.screening import screen_invariants
from repro.sva.compile import MonitorContext

SCREEN_RUNS = 6         # random simulation runs per screen
SCREEN_CYCLES = 40      # cycles per run
HOUDINI_K = 3           # induction depth tried for the conjunction
HOUDINI_BMC_BOUND = 8   # depth of Houdini's from-reset screen

Candidate = tuple[AssertionOutcome, SafetyProperty]


def _key(prop: SafetyProperty) -> tuple[bytes, int]:
    return E.structural_digest(prop.good), prop.valid_from


class CandidateFunnel:
    """One flow run's funnel: its context, outcomes, stats and lemma bank."""

    def __init__(self, ctx: MonitorContext, cache: ResultCache | None = None):
        self.ctx = ctx
        self.cache = cache
        self.stats = FlowStats()
        self.outcomes: list[AssertionOutcome] = []
        self.bank: dict[tuple[bytes, int], Candidate] = {}

    @property
    def lemmas(self) -> list[SafetyProperty]:
        """The banked lemmas, in the order they were proven."""
        return [prop for _, prop in self.bank.values()]

    def lemma_pairs(self) -> list[tuple[E.Expr, int]]:
        return [(prop.good, prop.valid_from) for prop in self.lemmas]

    def admit(self, response: LLMResponse) -> list[Candidate]:
        """Stages 2-4: the candidates that survive simulation."""
        self.stats.note_response(response)
        snippets = extract_assertions(response.text)
        self.stats.assertions_emitted += len(snippets)
        compiled: list[Candidate] = []
        seen: set[tuple[bytes, int]] = set()
        for record in validate_assertions(self.ctx.base, snippets):
            parsed = record.status != "syntax_error"
            self.stats.assertions_parsed += parsed
            if not record.usable:
                self.outcomes.append(AssertionOutcome(
                    record.raw_text, stage="resolve" if parsed else "parse",
                    detail=record.error))
                continue
            self.stats.assertions_resolved += 1
            outcome = AssertionOutcome(record.raw_text, stage="screen")
            self.outcomes.append(outcome)
            prop = self.ctx.add(record.ast)
            key = _key(prop)
            if key in self.bank:
                outcome.detail = "duplicate of a banked lemma"
            elif key in seen:
                outcome.detail = "repeats an earlier candidate"
            else:
                seen.add(key)
                compiled.append((outcome, prop))
        if not compiled:
            return []
        reports = screen_invariants(
            self.ctx.system, [prop.good for _, prop in compiled],
            runs=SCREEN_RUNS, cycles_per_run=SCREEN_CYCLES)
        survivors: list[Candidate] = []
        for (outcome, prop), report in zip(compiled, reports):
            if report.passed:
                self.stats.assertions_screened += 1
                outcome.stage = "proof"
                survivors.append((outcome, prop))
            else:
                outcome.detail = (f"falsified by simulation at cycle "
                                  f"{report.failed_at}")
        return survivors

    def prove(self, survivors: list[Candidate],
              target: SafetyProperty | None = None,
              max_k: int = HOUDINI_K
              ) -> tuple[list[Candidate], CheckResult | None]:
        """Stage 5: the maximal inductive subset of ``survivors``, banked.

        Houdini assumes the bank; the first item is what it adds to it.
        With a ``target`` the fixpoint runs jointly with it; when the
        target itself lands in the inductive subset, the second item is
        Houdini's PROVEN answer for that conjunction (its effort is
        booked here, once), else None.
        """
        candidates = [prop for _, prop in survivors]
        if target is not None:
            candidates.append(target)
        houdini = houdini_prove(
            self.ctx.system, candidates, max_k=max_k,
            bmc_bound=HOUDINI_BMC_BOUND, lemmas=self.lemma_pairs(),
            cache=self.cache)
        self.stats.proof_wall_s += houdini.stats.wall_seconds
        self.stats.sat_conflicts += houdini.stats.conflicts
        proven_ids = {id(p) for p in houdini.proven}
        proven: list[Candidate] = []
        for outcome, prop in survivors:
            if id(prop) in proven_ids:
                outcome.stage = "lemma"
                outcome.proven = True
                self.stats.assertions_proven += 1
                proven.append((outcome, prop))
                self.bank[_key(prop)] = (outcome, prop)
            else:
                outcome.detail = next((r for c, r in houdini.dropped
                                       if c is prop), "not inductive")
        target_proven = any(p is target for p in houdini.proven)
        return proven, houdini.answer if target_proven else None
