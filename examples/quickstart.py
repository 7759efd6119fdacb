#!/usr/bin/env python3
"""Quickstart: the paper's running example, end to end.

Reproduces Listings 1-3 and Fig. 3 of Kumar & Gadde (SOCC 2024):

1. the two synchronized counters (Listing 1) with the property
   ``&count1 |-> &count2`` (Listing 2);
2. the k-induction step failure and its counterexample waveform, where
   bit 31 of ``count2`` is not logic 1 in the unreachable pre-state
   (Fig. 3);
3. the Fig. 2 repair flow: the CEX and the RTL go to the (simulated)
   LLM, which answers with the helper assertion ``count1 == count2``
   (Listing 3); the helper is proven and the original assertion closes
   at k=1.

Run:  python examples/quickstart.py
"""

from repro.designs import get_design
from repro.flow.session import VerificationSession
from repro.mc.result import Status
from repro.trace.wave import render_bit_wave, render_wave

design = get_design("sync_counters")
session = VerificationSession(design, model="gpt-4o", seed=1)

print("=" * 72)
print("Step 1: plain k-induction on `equal_count` (&count1 |-> &count2)")
print("=" * 72)
baseline = session.prove_direct("equal_count")
print(baseline.one_line())
assert baseline.status is Status.UNKNOWN, "expected an induction failure"

print()
print("The inductive step failed. The counterexample starts from an")
print("arbitrary, unreachable state (the paper's Fig. 3):")
print()
cex = baseline.step_cex
print(render_wave(cex, signals=["count1", "count2"]))
print()
print(render_bit_wave(cex, "count2", max_cycles=1,
                      compare_with="count1"))

print()
print("=" * 72)
print("Step 2: the Fig. 2 repair flow (CEX + RTL -> LLM -> helper)")
print("=" * 72)
result = session.repair("equal_count")
print()
print("\n".join(result.summary_lines()))
print()
print("Assertion lifecycle:")
for outcome in result.outcomes:
    print("  " + outcome.one_line())
print()
print("LLM-generated helper assertions that were PROVEN and used:")
for helper in result.helpers:
    print(f"  {helper.name}: {helper.source_text or helper.name}")

assert result.converged, "the flow should close the proof"
final = result.final
print()
print(f"Final verdict: {final.one_line()}")
print()
print("The helper (the paper's Listing 3: count1 == count2) turned a")
print(f"non-converging induction into a k={final.k} proof.")
