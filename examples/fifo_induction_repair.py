#!/usr/bin/env python3
"""FIFO occupancy: the textbook induction-strengthening case study.

``count <= 16`` is true but not inductive — an unreachable state with
``count == 16`` and distant pointers lets one more push overflow the
counter, because ``full`` derives from the pointers.  The repair flow
recovers the classic invariant ``count == wptr - rptr`` from the
induction-step CEX and closes the proof.

Run:  python examples/fifo_induction_repair.py
"""

from repro.designs import get_design
from repro.flow.session import VerificationSession
from repro.mc.result import Status
from repro.report import Table
from repro.trace.wave import render_for_prompt

design = get_design("fifo_ctrl")
session = VerificationSession(design, model="gpt-4o", seed=11)

print("Plain induction on `occupancy_bound` (count <= 16):")
baseline = session.prove_direct("occupancy_bound")
print("  " + baseline.one_line())
assert baseline.status is Status.UNKNOWN
print()
print("Induction-step counterexample (what the LLM gets to see):")
print()
print(render_for_prompt(baseline.step_cex,
                        signals=["wr_en", "rd_en", "count", "wptr",
                                 "rptr", "full", "empty"]))
print()

repair = session.repair("occupancy_bound")
print("\n".join(repair.summary_lines()))
assert repair.converged

print()
table = Table(["property", "plain induction", "with GenAI helper"],
              title="FIFO proof status")
for prop_name in ("occupancy_bound", "empty_means_zero"):
    r = session.repair(prop_name)
    plain = session.prove_direct(prop_name)
    table.add_row(prop_name, plain.status.value,
                  f"{r.status.value} (k={r.final.k if r.final else '?'})")
print(table.to_text())

print("Helper(s) the flow proved and assumed:")
for helper in repair.helpers:
    print(f"  {helper.source_text or helper.name}")
