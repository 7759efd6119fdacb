"""Rendering of chat-style responses from candidate lists.

Produces the free-form text a model would return: persona-flavoured
prose, numbered explanations, and SVA code blocks.  Weak personas
occasionally forget code fences (the extractor must — and does — cope),
which reproduces a real failure mode of smaller models.
"""

from __future__ import annotations

import random

from repro.genai.personas import ModelPersona
from repro.mine.candidates import Candidate

_INTROS = {
    "OpenAI": [
        "Here are helper assertions derived from the design analysis:",
        "Based on the specification and RTL, I propose the following "
        "invariants:",
    ],
    "Meta": [
        "Sure! Let me analyze this design for you. Looking at the RTL, "
        "here are some assertions that might help:",
        "Great question! After going through the code, I think these "
        "properties could be useful:",
    ],
    "Google": [
        "I've analyzed the design. The following helper assertions "
        "should assist the induction proof:",
        "Here is my analysis of the RTL together with proposed "
        "assertions:",
    ],
    "diagnostic": ["Proposed assertions:"],
}

_CEX_REMARKS = {
    "OpenAI": "The inductive step starts from an unreachable state; the "
              "assertions below exclude it.",
    "Meta": "It looks like the counterexample starts in a weird state "
            "that the design can never actually reach, so we need to "
            "teach the prover about it.",
    "Google": "The counterexample pre-state violates a reachable-state "
              "relation; the following invariants restore induction.",
    "diagnostic": "Pre-state exclusion invariants:",
}


def render_response(persona: ModelPersona,
                    candidates: list[Candidate],
                    task: str,
                    rng: random.Random) -> str:
    """Render the final chat response text."""
    lines: list[str] = []
    intros = _INTROS.get(persona.vendor, _INTROS["diagnostic"])
    lines.append(rng.choice(intros))
    if task == "repair":
        lines.append("")
        lines.append(_CEX_REMARKS.get(persona.vendor,
                                      _CEX_REMARKS["diagnostic"]))
    if not candidates:
        lines.append("")
        lines.append("I could not identify any helpful invariants for "
                     "this design.")
        return "\n".join(lines)
    for index, cand in enumerate(candidates, start=1):
        lines.append("")
        explanation = cand.rationale or "a useful invariant"
        if persona.chattiness > 0.75 and rng.random() < 0.5:
            explanation += (". This is a common pattern in hardware "
                            "verification and should generally hold")
        lines.append(f"{index}. {explanation[:1].upper()}{explanation[1:]}.")
        prop_name = f"helper_{_slug(cand.kind)}_{index}"
        body = cand.sva.rstrip(";")
        fenced = rng.random() > 0.12 * persona.chattiness
        block = f"property {prop_name};\n  {body};\nendproperty"
        if fenced:
            lines.append("```systemverilog")
            lines.append(block)
            lines.append("```")
        else:
            # Weak-model failure mode: code without fences.
            lines.append(block)
    if persona.chattiness > 0.5:
        lines.append("")
        lines.append("Let me know if you need these adapted or if the "
                     "induction still fails!")
    return "\n".join(lines)


def _slug(kind: str) -> str:
    return kind.replace("_", "")[:12]
