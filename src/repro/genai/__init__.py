"""The LLM contract over :mod:`repro.mine`'s candidate pool.

The reproduction's offline stand-in for the paper's OpenAI / Llama /
Gemini APIs (see ``docs/architecture.md``), with the interfaces of a
real deployment: :mod:`~repro.genai.prompts` builds the Fig. 1 (spec +
RTL -> helper assertions) and Fig. 2 (CEX + RTL -> inductive invariant)
prompts; :class:`~repro.genai.client.SimulatedLLM` reads *only the
prompt text* and samples the mined pool through a per-model
:mod:`persona <repro.genai.personas>` (recall, junk, hallucination rate,
latency — the Section V model comparison); :mod:`~repro.genai.textgen`
and :mod:`~repro.genai.hallucinate` render the chat-style answer and a
weak model's corruptions of it; :mod:`~repro.genai.parse` extracts and
validates the SVA again, flagging hallucinations the way a reviewing
engineer would.
"""

from repro.genai.client import LLMClient, LLMResponse, SimulatedLLM
from repro.genai.personas import ModelPersona, get_persona, list_personas
from repro.genai.prompts import lemma_prompt, repair_prompt
from repro.genai.parse import ExtractedAssertion, extract_assertions, validate_assertions

__all__ = [
    "ExtractedAssertion",
    "LLMClient",
    "LLMResponse",
    "ModelPersona",
    "SimulatedLLM",
    "extract_assertions",
    "get_persona",
    "lemma_prompt",
    "list_personas",
    "repair_prompt",
    "validate_assertions",
]
