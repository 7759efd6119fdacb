#!/usr/bin/env python3
"""Model comparison (the paper's Section V observation).

Runs the Fig. 2 repair flow with each simulated persona over the
induction-failing design suite and tallies assertion quality: how many
emitted assertions parse, resolve, survive screening, get proven, and
whether the proof converged.  The expected shape — the paper's finding —
is that the OpenAI personas (GPT-4-Turbo, GPT-4o) dominate Llama and
Gemini on every column.

Run:  python examples/model_shootout.py
"""

from repro.designs import get_design
from repro.flow.session import VerificationSession
from repro.genai.personas import PAPER_MODELS
from repro.report import Table

CASES = [
    ("sync_counters", "equal_count"),
    ("fifo_ctrl", "occupancy_bound"),
    ("traffic_onehot", "mutual_exclusion"),
    ("rr_arbiter", "grant_onehot0"),
]
SEEDS = (0, 1, 2)

table = Table(["model", "emitted", "parse ok", "resolve ok", "proven",
               "converged", "llm latency (s)"],
              title="Section V model comparison (repair flow, "
                    f"{len(CASES)} designs x {len(SEEDS)} seeds)")

for model in PAPER_MODELS:
    emitted = parsed = resolved = proven = converged = 0
    latency = 0.0
    runs = 0
    for design_name, prop_name in CASES:
        for seed in SEEDS:
            session = VerificationSession(get_design(design_name),
                                          model=model, seed=seed)
            result = session.repair(prop_name)
            runs += 1
            emitted += result.stats.assertions_emitted
            parsed += result.stats.assertions_parsed
            resolved += result.stats.assertions_resolved
            proven += result.stats.assertions_proven
            converged += int(result.converged)
            latency += result.stats.llm_latency_s
    table.add_row(model, emitted, parsed, resolved, proven,
                  f"{converged}/{runs}", f"{latency / runs:.1f}")

print(table.to_text())
print("Expected shape (paper Section V): OpenAI personas produce more")
print("usable, provable assertions and converge more often than the")
print("Llama/Gemini personas.")
