"""The Fig. 1 flow: LLM(spec, RTL) -> helper assertions -> lemmas.

Pipeline stages (each one a measured filter):

1. build the lemma prompt from the design's specification and RTL; one
   LLM call;
2. — 5. the candidate funnel (:mod:`repro.flow.funnel`): extract,
   parse + resolve, screen, Houdini — survivors are *proven* invariants;
6. prove every target property twice — without and with the proven
   lemmas — and report the effort delta (the paper's "faster proof for
   complex properties"); with no lemma proven the two are one query,
   asked and booked once.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.designs.base import Design
from repro.flow.funnel import CandidateFunnel
from repro.flow.stats import AssertionOutcome, FlowStats
from repro.genai.client import LLMClient
from repro.genai.prompts import lemma_prompt
from repro.mc.cache import ResultCache
from repro.mc.engine import EngineConfig, ProofEngine
from repro.mc.property import SafetyProperty
from repro.mc.result import CheckResult, Status
from repro.sva.compile import MonitorContext


@dataclass
class TargetComparison:
    """Proof effort for one target, without vs with lemmas."""

    name: str
    without: CheckResult
    with_lemmas: CheckResult

    @property
    def speedup(self) -> float:
        """Wall-time ratio (>1 means the lemmas helped)."""
        after = max(self.with_lemmas.stats.wall_seconds, 1e-9)
        return self.without.stats.wall_seconds / after

    @property
    def enabled_proof(self) -> bool:
        """Lemmas turned a non-converging induction into a proof."""
        return (self.without.status is not Status.PROVEN
                and self.with_lemmas.status is Status.PROVEN)


@dataclass
class LemmaFlowResult:
    """Everything the Fig. 1 flow produced for one design."""

    design: str
    model: str
    outcomes: list[AssertionOutcome]
    lemmas: list[SafetyProperty]
    targets: list[TargetComparison]
    stats: FlowStats
    response_text: str = ""

    def summary_lines(self) -> list[str]:
        lines = [f"lemma flow on {self.design} with {self.model}: "
                 f"{len(self.lemmas)} lemmas proven from "
                 f"{self.stats.assertions_emitted} generated"]
        for t in self.targets:
            marker = "ENABLED" if t.enabled_proof else \
                f"x{t.speedup:.1f}"
            lines.append(
                f"  {t.name}: {t.without.status.value} -> "
                f"{t.with_lemmas.status.value} ({marker})")
        return lines


class LemmaGenerationFlow:
    """Runs the Fig. 1 helper-assertion-generation flow on one design."""

    def __init__(self, client: LLMClient,
                 engine_config: EngineConfig | None = None,
                 cache: ResultCache | None = None):
        self.client = client
        self.engine_config = engine_config or EngineConfig()
        self.cache = cache

    # ------------------------------------------------------------------

    def run(self, design: Design,
            targets: list[str] | None = None) -> LemmaFlowResult:
        """Execute the flow; ``targets`` defaults to all design properties."""
        ctx = MonitorContext(design.system())
        funnel = CandidateFunnel(ctx, cache=self.cache)
        stats = funnel.stats

        # 1. Prompt the model.
        prompt = lemma_prompt(design.spec, design.rtl)
        response = self.client.complete(prompt)

        # 2-5. Extract, triage, screen, Houdini: what survives is banked.
        funnel.prove(funnel.admit(response))
        lemmas = funnel.lemma_pairs()

        # 6. Target comparisons: without vs with lemmas.
        engine = ProofEngine(ctx.system, self.engine_config, cache=self.cache)
        comparisons = []
        target_names = targets if targets is not None else \
            [p.name for p in design.properties if p.expect == "proven"]
        for target_name in target_names:
            spec = design.property_spec(target_name)
            target_prop = ctx.add(spec.sva, name=spec.name)
            without = engine.prove(target_prop, max_k=spec.max_k)
            stats.note_proof(without)
            if lemmas:
                with_lemmas = engine.prove(target_prop, max_k=spec.max_k,
                                           lemmas=lemmas)
                stats.note_proof(with_lemmas)
            else:
                # No lemma: the same query, already answered and booked.
                with_lemmas = without
            comparison = TargetComparison(target_name, without, with_lemmas)
            comparisons.append(comparison)
            if comparison.enabled_proof or comparison.speedup > 1.2:
                for outcome, _ in funnel.bank.values():
                    outcome.useful = True

        return LemmaFlowResult(
            design=design.name, model=getattr(self.client, "model_name",
                                              "unknown"),
            outcomes=funnel.outcomes, lemmas=funnel.lemmas,
            targets=comparisons, stats=stats, response_text=response.text)
