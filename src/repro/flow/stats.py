"""Statistics records shared by both flows.

These are the observables the benchmarks report: what the LLM produced,
what survived each safety net, and what the proofs cost with and without
the surviving helpers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.genai.client import LLMResponse
from repro.mc.result import CheckResult


@dataclass
class AssertionOutcome:
    """Lifecycle of one LLM-emitted assertion through the flow's filters.

    ``stage`` records how far it got:
    ``parse`` -> ``resolve`` -> ``screen`` -> ``proof`` -> ``lemma``.
    An assertion that reaches ``lemma`` was proven and used.
    """

    raw_text: str
    stage: str
    detail: str = ""
    proven: bool = False
    useful: bool = False

    def one_line(self) -> str:
        body = " ".join(self.raw_text.split())
        if len(body) > 60:
            body = body[:57] + "..."
        flags = []
        if self.proven:
            flags.append("proven")
        if self.useful:
            flags.append("useful")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        return f"{self.stage:8s} {body}{suffix}"


@dataclass
class FlowStats:
    """Aggregate effort accounting for one flow run."""

    llm_calls: int = 0
    llm_latency_s: float = 0.0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    assertions_emitted: int = 0
    assertions_parsed: int = 0
    assertions_resolved: int = 0
    assertions_screened: int = 0
    assertions_proven: int = 0
    proof_wall_s: float = 0.0
    sat_conflicts: int = 0
    iterations: int = 0

    def note_response(self, response: LLMResponse) -> None:
        self.llm_calls += 1
        self.llm_latency_s += response.latency_s
        self.prompt_tokens += response.prompt_tokens
        self.completion_tokens += response.completion_tokens

    def note_proof(self, result: CheckResult) -> None:
        self.proof_wall_s += result.stats.wall_seconds
        self.sat_conflicts += result.stats.conflicts
