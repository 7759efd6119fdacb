#!/usr/bin/env python3
"""ECC verification with GenAI-assisted induction (the paper's second
design family).

The Hamming SEC-DED pipeline's decode-correctness properties fail plain
k=1 induction: from an arbitrary state the stored codeword bears no
relation to the shadow data.  The repair flow feeds the induction-step
counterexample to the LLM, which proposes the datapath consistency
invariant ``cw_q == expected_cw ^ err_q``; once proven, all three
decode-correctness properties close at k=1.

Run:  python examples/ecc_verification.py
"""

from repro.designs import get_design
from repro.flow.session import VerificationSession
from repro.mc.engine import EngineConfig, ProofEngine
from repro.mc.result import Status
from repro.report import Table
from repro.sva.compile import MonitorContext

design = get_design("ecc_pipeline")
print(design.spec)

session = VerificationSession(design, model="gpt-4o", seed=7)

print("Baseline: plain k=1 induction on every property")
print("-" * 60)
for prop in design.properties:
    result = session.prove_direct(prop.name)
    print(f"  {result.one_line()}")
    assert result.status is Status.UNKNOWN

print()
print("Repair flow on `no_error_clean` (syndrome-zero property)")
print("-" * 60)
repair = session.repair("no_error_clean")
print("\n".join(repair.summary_lines()))
assert repair.converged
print()
print("Proven helper invariants:")
for helper in repair.helpers:
    print(f"  {helper.source_text or helper.name}")

print()
print("Reusing the proven helpers for the remaining properties")
print("-" * 60)
table = Table(["property", "without helper", "with helper", "k"],
              title="ECC decode correctness")

ctx = MonitorContext(design.system())
engine = ProofEngine(ctx.system, EngineConfig(max_k=1))
golden_name, golden_sva = design.golden_helpers[0]
helper_prop = ctx.add(golden_sva, name=golden_name)
helper_result = engine.prove(helper_prop, max_k=1)
assert helper_result.status is Status.PROVEN
lemmas = [(helper_prop.good, helper_prop.valid_from)]

for prop in design.properties:
    target = ctx.add(design.property_spec(prop.name).sva, name=prop.name)
    with_helper = engine.prove(target, max_k=1, lemmas=lemmas)
    table.add_row(prop.name, "unknown (k=1)",
                  with_helper.status.value,
                  with_helper.k)
    assert with_helper.status is Status.PROVEN
print(table.to_text())
print("All ECC properties proven with the GenAI-suggested invariant.")
