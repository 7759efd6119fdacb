"""Model personas: per-LLM quality and latency profiles.

The paper's Section V observes that assertions from OpenAI models
(GPT-4-Turbo, GPT-4o) were "much better" than those from Llama or Gemini.
A persona packages that observation into sampling parameters applied to
the mined pool's ranked candidates (:mod:`repro.mine`):

``recall``
    probability that a high-confidence candidate actually appears in the
    response (weaker models miss the key invariant more often);
``extra_junk``
    expected number of low-value candidates appended (imprecision);
``hallucination_rate``
    probability that an emitted assertion is corrupted — misspelled
    signals, off-by-one constants, bent operators, or broken syntax
    (see :mod:`repro.genai.hallucinate`);
``latency``
    simulated service latency (base + per-1k-token), recorded in flow
    statistics the way a real deployment would pay it.

Numbers are calibrated to reproduce the paper's *ranking*, not any
specific benchmark score.  All sampling is deterministic per
(persona, prompt, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import GenAiError


@dataclass(frozen=True)
class ModelPersona:
    """Quality/latency profile of one simulated model."""

    name: str
    vendor: str
    recall: float
    extra_junk: float
    hallucination_rate: float
    max_assertions: int
    latency_base_s: float
    latency_per_1k_tokens_s: float
    chattiness: float  # 0..1, length of the surrounding prose

    def describe(self) -> str:
        return (f"{self.name} ({self.vendor}): recall={self.recall:.2f}, "
                f"hallucination={self.hallucination_rate:.2f}, "
                f"junk={self.extra_junk:.1f}")


_PERSONAS = {
    "gpt-4o": ModelPersona(
        name="gpt-4o", vendor="OpenAI",
        recall=0.96, extra_junk=0.6, hallucination_rate=0.04,
        max_assertions=6, latency_base_s=0.45,
        latency_per_1k_tokens_s=7.0, chattiness=0.6),
    "gpt-4-turbo": ModelPersona(
        name="gpt-4-turbo", vendor="OpenAI",
        recall=0.92, extra_junk=0.9, hallucination_rate=0.07,
        max_assertions=6, latency_base_s=0.65,
        latency_per_1k_tokens_s=12.0, chattiness=0.7),
    "llama-3-70b": ModelPersona(
        name="llama-3-70b", vendor="Meta",
        recall=0.55, extra_junk=2.2, hallucination_rate=0.28,
        max_assertions=8, latency_base_s=0.35,
        latency_per_1k_tokens_s=9.0, chattiness=0.9),
    "gemini-1.5-pro": ModelPersona(
        name="gemini-1.5-pro", vendor="Google",
        recall=0.62, extra_junk=1.8, hallucination_rate=0.22,
        max_assertions=7, latency_base_s=0.55,
        latency_per_1k_tokens_s=10.0, chattiness=0.8),
    # Diagnostic endpoints outside the paper's lineup:
    "oracle": ModelPersona(
        name="oracle", vendor="diagnostic",
        recall=1.0, extra_junk=0.0, hallucination_rate=0.0,
        max_assertions=10, latency_base_s=0.0,
        latency_per_1k_tokens_s=0.0, chattiness=0.2),
    "scrambler": ModelPersona(
        name="scrambler", vendor="diagnostic",
        recall=0.35, extra_junk=3.0, hallucination_rate=0.75,
        max_assertions=8, latency_base_s=0.2,
        latency_per_1k_tokens_s=5.0, chattiness=1.0),
}

PAPER_MODELS = ("gpt-4-turbo", "gpt-4o", "llama-3-70b", "gemini-1.5-pro")


def get_persona(name: str) -> ModelPersona:
    """Look up a persona by model name."""
    persona = _PERSONAS.get(name)
    if persona is None:
        raise GenAiError(
            f"unknown model {name!r}; available: {sorted(_PERSONAS)}")
    return persona


def list_personas() -> list[str]:
    return sorted(_PERSONAS)
