"""Candidate helper assertions produced by the mining engines, and the
single-state predicate a candidate body stands for."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import HdlError, PropertyError
from repro.ir import expr as E
from repro.ir.system import TransitionSystem
from repro.sva.compile import MonitorContext


@dataclass
class Candidate:
    """One candidate helper assertion.

    ``sva`` is the property body text (what the simulated LLM will quote);
    ``kind`` tags the template that produced it; ``score`` orders emission
    (higher = more confident); ``rationale`` becomes the explanatory prose
    in the rendered response.
    """

    sva: str
    kind: str
    score: float
    rationale: str = ""
    signals: tuple[str, ...] = ()

    def key(self) -> str:
        """Deduplication key (whitespace-normalized body)."""
        return " ".join(self.sva.split())


def dedupe(candidates: list[Candidate]) -> list[Candidate]:
    """Keep the highest-scoring instance of each distinct body."""
    best: dict[str, Candidate] = {}
    for c in candidates:
        k = c.key()
        if k not in best or c.score > best[k].score:
            best[k] = c
    return sorted(best.values(), key=lambda c: -c.score)


def state_predicate(system: TransitionSystem, body: str) -> E.Expr | None:
    """The "good" predicate an SVA body asserts of one state, with
    ``system``'s defines resolved.

    ``None`` when the body has no single-state meaning: it fails to
    parse or names an unknown signal, has a warm-up offset (``$past``
    chains), or needs monitor state of its own.
    """
    try:
        ctx = MonitorContext(system)
        prop = ctx.add(body, name="cand")
    except (PropertyError, HdlError):
        return None
    if prop.valid_from > 0 or len(ctx.system.states) != len(system.states):
        return None
    return ctx.system.resolve_defines(E.not_(prop.bad))
