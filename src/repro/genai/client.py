"""LLM client interface and the offline simulated implementation.

:class:`SimulatedLLM` honours the text contract end to end: it receives
*only the prompt string*, recovers the RTL / specification / CEX sections
from it (the way a real model reads its context window), draws the
design's mined candidate pool (:mod:`repro.mine`), samples it through
its persona's quality profile (recall sampling, junk injection,
hallucination corruption), and renders a chat-style response.  The
flows then parse that text back — so the whole paper pipeline,
including its failure modes, is exercised without network access.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from typing import Protocol

from repro.errors import GenAiError
from repro.hdl.elaborate import elaborate
from repro.ir.system import TransitionSystem
from repro.genai.hallucinate import corrupt
from repro.genai.personas import ModelPersona, get_persona
from repro.genai.prompts import split_prompt
from repro.genai.textgen import render_response
from repro.mine.candidates import Candidate
from repro.mine.static_engine import StaticSynthesizer
from repro.mine.cex_engine import rank_for_cex


@dataclass
class LLMResponse:
    """A model response plus the usage accounting a deployment would log."""

    text: str
    model: str
    prompt_tokens: int
    completion_tokens: int
    latency_s: float


class LLMClient(Protocol):
    """Anything that can answer a prompt (swap in a real API client here)."""

    model_name: str

    def complete(self, prompt: str) -> LLMResponse:  # pragma: no cover
        ...


def _count_tokens(text: str) -> int:
    """Cheap token estimate (≈4 chars/token, the usual rule of thumb)."""
    return max(1, len(text) // 4)


class SimulatedLLM:
    """Offline stand-in for the paper's GPT-4/Llama/Gemini endpoints: a
    persona sampler over the design's mined candidate pool."""

    def __init__(self, model: str = "gpt-4o", seed: int = 0):
        self.persona: ModelPersona = get_persona(model)
        self.model_name = self.persona.name
        self.seed = seed
        self._system_cache: dict[str, TransitionSystem] = {}
        self.calls = 0

    # ------------------------------------------------------------------

    def complete(self, prompt: str) -> LLMResponse:
        """Answer a lemma-generation or induction-repair prompt."""
        self.calls += 1
        rng = self._rng_for(prompt)
        sections = split_prompt(prompt)
        task = sections.get("task", "unknown")
        if task == "unknown" or "rtl" not in sections:
            raise GenAiError(
                "SimulatedLLM received a prompt without a recognizable "
                "task/RTL section; use repro.genai.prompts builders")
        system = self._elaborate_cached(sections["rtl"])
        synthesizer = StaticSynthesizer(system,
                                        spec_text=sections.get("spec", ""),
                                        seed=self.seed)
        pool = synthesizer.candidates()
        if task == "repair":
            env = _parse_cex_env(sections.get("cex", ""))
            pool = rank_for_cex(system, pool, env)
        chosen = self._persona_filter(pool, rng, system)
        text = render_response(self.persona, chosen, task, rng)
        prompt_tokens = _count_tokens(prompt)
        completion_tokens = _count_tokens(text)
        latency = (self.persona.latency_base_s +
                   (prompt_tokens + completion_tokens) / 1000.0 *
                   self.persona.latency_per_1k_tokens_s)
        latency *= rng.uniform(0.85, 1.15)
        return LLMResponse(text=text, model=self.model_name,
                           prompt_tokens=prompt_tokens,
                           completion_tokens=completion_tokens,
                           latency_s=latency)

    # ------------------------------------------------------------------

    def _rng_for(self, prompt: str) -> random.Random:
        digest = hashlib.sha256(
            f"{self.persona.name}|{self.seed}|{prompt}".encode()).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def _elaborate_cached(self, rtl: str) -> TransitionSystem:
        system = self._system_cache.get(rtl)
        if system is None:
            system = elaborate(rtl)
            self._system_cache[rtl] = system
        return system

    def _persona_filter(self, pool: list[Candidate], rng: random.Random,
                        system: TransitionSystem) -> list[Candidate]:
        """Apply recall / junk / hallucination to the ranked pool."""
        persona = self.persona
        strong = [c for c in pool if c.score >= 0.6]
        weak = [c for c in pool if c.score < 0.6]
        chosen: list[Candidate] = []
        for cand in strong:
            if rng.random() <= persona.recall:
                chosen.append(cand)
        junk_budget = persona.extra_junk
        while junk_budget > 0 and rng.random() < min(junk_budget, 1.0):
            junk_budget -= 1.0
            if weak and rng.random() < 0.6:
                chosen.append(weak.pop(0))
            else:
                fabricated = self._fabricate_junk(system, rng)
                if fabricated is not None:
                    chosen.append(fabricated)
        chosen = chosen[:persona.max_assertions]
        # Hallucination corruption (the Section VI warning, made concrete).
        final: list[Candidate] = []
        for cand in chosen:
            if rng.random() < persona.hallucination_rate:
                corrupted, kind = corrupt(cand.sva, rng)
                final.append(Candidate(
                    sva=corrupted, kind=f"hallucinated:{kind}",
                    score=cand.score, rationale=cand.rationale,
                    signals=cand.signals))
            else:
                final.append(cand)
        return final

    def _fabricate_junk(self, system: TransitionSystem,
                        rng: random.Random) -> Candidate | None:
        """Invent a filler assertion (trivial, or plausible-but-wrong)."""
        states = [n for n in system.states if not n.startswith("_mon.")]
        if not states:
            return None
        name = rng.choice(states)
        width = system.states[name].width
        style = rng.randrange(3)
        if style == 0:
            body = f"{name} >= {width}'h0"
            why = f"`{name}` is always non-negative"
        elif style == 1 and len(states) > 1:
            other = rng.choice([s for s in states if s != name])
            body = f"{name} != {other}"
            why = f"`{name}` and `{other}` should differ"
        else:
            body = f"{name} <= {width}'h{(1 << width) - 1:x}"
            why = f"`{name}` stays within its declared range"
        return Candidate(sva=body, kind="junk", score=0.1, rationale=why,
                         signals=(name,))


_PRESTATE_LINE = re.compile(
    r"pre-state[^:]*:\s*(.*)$", re.MULTILINE)
_NAME_VALUE = re.compile(r"([A-Za-z_][\w.\[\]]*)=0x([0-9a-fA-F]+)")
_TABLE_ROW = re.compile(
    r"^([A-Za-z_][\w.\[\]]*)\s+([0-9a-fA-F]+(?:\s+[0-9a-fA-F]+)*)\s*$",
    re.MULTILINE)


def _parse_cex_env(cex_text: str) -> dict[str, int]:
    """Recover the cycle-0 valuation from the waveform text.

    Reads both the compact hex table (first column) and the explicit
    pre-state listing; the listing wins on conflicts.
    """
    env: dict[str, int] = {}
    for m in _TABLE_ROW.finditer(cex_text):
        name = m.group(1)
        if name in ("time", "bit"):
            continue
        first_value = m.group(2).split()[0]
        env[name] = int(first_value, 16)
    listing = _PRESTATE_LINE.search(cex_text)
    if listing:
        for m in _NAME_VALUE.finditer(listing.group(1)):
            env[m.group(1)] = int(m.group(2), 16)
    return env
