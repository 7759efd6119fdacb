"""repro — GenAI-augmented induction-based formal verification.

A from-scratch reproduction of Kumar & Gadde, *Generative AI Augmented
Induction-based Formal Verification* (IEEE SOCC 2024, arXiv:2407.18965):
an RTL formal-verification stack (SystemVerilog-subset frontend, SVA
properties, bit-blasting, CDCL SAT, BMC and k-induction) plus the paper's
two LLM flows — specification/RTL-driven helper-assertion generation
(Fig. 1) and counterexample-driven induction repair (Fig. 2) — running
against offline simulated LLM personas calibrated to the paper's
GPT-4-Turbo / GPT-4o / Llama / Gemini comparison.

Quick start::

    from repro.designs import get_design
    from repro.flow.session import VerificationSession

    session = VerificationSession(get_design("sync_counters"),
                                  model="gpt-4o")
    result = session.repair("equal_count")
    print("\\n".join(result.summary_lines()))

Subsystem map: :mod:`repro.hdl` (RTL frontend), :mod:`repro.sva`
(properties), :mod:`repro.ir`/:mod:`repro.sim` (model + simulator),
:mod:`repro.aig`/:mod:`repro.sat` (proof engine core), :mod:`repro.mc`
(BMC/k-induction), :mod:`repro.trace` (CEX/waveforms), :mod:`repro.mine`
(candidate-lemma mining), :mod:`repro.genai` (LLM substrate over the
mined pool), :mod:`repro.flow` (the paper's flows),
:mod:`repro.designs` (the evaluated design suite).
"""
