"""The paper's two GenAI-augmented verification flows.

* :class:`~repro.flow.lemma_flow.LemmaGenerationFlow` — Fig. 1: the LLM
  reads the specification and RTL and proposes helper assertions; proven
  helpers become assumptions that accelerate the target proofs.
* :class:`~repro.flow.repair_flow.InductionRepairFlow` — Fig. 2: on an
  inductive-step failure, the CEX waveform and RTL go back to the LLM,
  which proposes a strengthening invariant; the loop iterates until the
  proof closes or a round teaches it nothing new.

Both flows enforce the soundness discipline the paper's conclusion calls
for: **no LLM output is ever assumed unproven**.  Candidates pass
simulation screening and a Houdini-style inductive fixpoint
(:mod:`repro.flow.houdini`) before they may strengthen anything; each
distinct proven lemma is held once, in the funnel's lemma bank.
"""
