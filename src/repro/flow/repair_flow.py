"""The Fig. 2 flow: induction-step failure -> CEX -> LLM -> invariant.

The loop the paper describes, automated end to end:

1. attempt k-induction on the target property;
2. on step failure, render the step counterexample as waveform text (the
   paper's Fig. 3 artifact) and build the repair prompt (CEX + RTL);
3. the LLM proposes strengthening invariants; the candidate funnel
   (:mod:`repro.flow.funnel`) parses, resolves and screens them;
4. candidates that survive screening enter a Houdini pass *jointly with
   the target*: if the target lands in the inductive subset, the proof is
   closed; otherwise proven candidates become lemmas and the loop
   re-attempts the induction with a strengthened hypothesis;
5. iterate up to ``MAX_ITERATIONS``.

A base-case failure at any point is a real bug and terminates the loop
with VIOLATED (GenAI cannot — and must not — repair those).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.designs.base import Design
from repro.flow.funnel import HOUDINI_K, CandidateFunnel
from repro.flow.stats import AssertionOutcome, FlowStats
from repro.genai.client import LLMClient
from repro.genai.prompts import repair_prompt
from repro.mc.cache import ResultCache
from repro.mc.engine import EngineConfig, ProofEngine
from repro.mc.property import SafetyProperty
from repro.mc.result import CheckResult, Status
from repro.sva.compile import MonitorContext
from repro.trace.wave import render_for_prompt

MAX_ITERATIONS = 4  # trips around the loop before giving up
CEX_SIGNALS = 12    # signals shown to the model, most-active first


@dataclass
class RepairIteration:
    """Record of one trip around the repair loop."""

    index: int
    induction: CheckResult
    cex_text: str = ""
    emitted: int = 0
    proven_helpers: list[str] = field(default_factory=list)


@dataclass
class RepairFlowResult:
    """Outcome of the full repair loop on one property."""

    design: str
    property_name: str
    model: str
    status: Status
    iterations: list[RepairIteration]
    helpers: list[SafetyProperty]
    outcomes: list[AssertionOutcome]
    stats: FlowStats
    final: CheckResult | None = None

    @property
    def converged(self) -> bool:
        return self.status is Status.PROVEN

    def summary_lines(self) -> list[str]:
        lines = [f"repair flow on {self.design}.{self.property_name} "
                 f"with {self.model}: {self.status.value} after "
                 f"{len(self.iterations)} iteration(s), "
                 f"{len(self.helpers)} helper(s)"]
        for it in self.iterations:
            lines.append(f"  iter {it.index}: induction "
                         f"{it.induction.status.value} (k={it.induction.k})"
                         f", {it.emitted} assertions, helpers: "
                         f"{', '.join(it.proven_helpers) or '-'}")
        return lines


class InductionRepairFlow:
    """Runs the Fig. 2 induction-step-failure repair loop."""

    def __init__(self, client: LLMClient,
                 engine_config: EngineConfig | None = None,
                 cache: ResultCache | None = None):
        self.client = client
        self.engine_config = engine_config or EngineConfig()
        self.cache = cache

    # ------------------------------------------------------------------

    def run(self, design: Design, property_name: str,
            max_k: int | None = None) -> RepairFlowResult:
        spec = design.property_spec(property_name)
        ctx = MonitorContext(design.system())
        target = ctx.add(spec.sva, name=spec.name)
        engine = ProofEngine(ctx.system, self.engine_config,
                             cache=self.cache)
        depth = max_k if max_k is not None else spec.max_k

        funnel = CandidateFunnel(ctx, cache=self.cache)
        stats = funnel.stats
        iterations: list[RepairIteration] = []
        helpers: list[SafetyProperty] = []
        final: CheckResult | None = None
        status = Status.UNKNOWN

        for index in range(1, MAX_ITERATIONS + 1):
            stats.iterations = index
            result = engine.prove(target, max_k=depth)
            stats.note_proof(result)
            iteration = RepairIteration(index=index, induction=result)
            iterations.append(iteration)
            final = result
            if result.status is Status.PROVEN:
                status = Status.PROVEN
                break
            if result.status is Status.VIOLATED:
                status = Status.VIOLATED
                break
            if result.step_cex is None:
                break
            if index == 1:
                # Before asking the LLM to "repair" anything, make sure the
                # failure is an induction weakness and not a real bug that
                # merely lies beyond the induction depth.
                probe = engine.probe_bugs(target, conflict_budget=1500)
                stats.note_proof(probe)
                if probe.status is Status.VIOLATED:
                    status = Status.VIOLATED
                    final = probe
                    iteration.induction = probe
                    break

            # 2. Render the CEX for the prompt (restricted to the signals
            # that matter: states + inputs, most-active first).
            trace = result.step_cex
            signal_names = [s.name for s in trace.signals
                            if s.kind in ("state", "input")
                            and not s.name.startswith("_mon.")]
            cex_text = render_for_prompt(
                trace.restricted(signal_names[:CEX_SIGNALS]))
            iteration.cex_text = cex_text
            prompt = repair_prompt(design.rtl, spec.sva, cex_text)
            response = self.client.complete(prompt)

            # 3. Parse / resolve / screen.
            emitted_before = stats.assertions_emitted
            candidates = funnel.admit(response)
            iteration.emitted = stats.assertions_emitted - emitted_before
            if not candidates:
                continue  # nothing usable this round; ask again

            # 4. Houdini jointly with the target: closing in one shot.
            proven, answer = funnel.prove(
                candidates, target=target, max_k=max(HOUDINI_K, depth),
                lemmas=engine.lemma_pairs())
            for outcome, prop in proven:
                outcome.useful = True
                helpers.append(prop)
                engine.add_lemma(prop.name, prop.good, prop.valid_from)
                iteration.proven_helpers.append(prop.name)
            # If the target itself survived Houdini, Houdini's answer
            # proves it; that query is already booked.
            if answer is not None:
                status = Status.PROVEN
                final = answer
                iterations.append(RepairIteration(
                    index=index + 1, induction=final))
                break

        return RepairFlowResult(
            design=design.name, property_name=property_name,
            model=getattr(self.client, "model_name", "unknown"),
            status=status, iterations=iterations, helpers=helpers,
            outcomes=funnel.outcomes, stats=stats, final=final)
