"""Frame seeding: externally suggested invariants for the PDR engine.

The paper's thesis — generated lemmas strengthen induction-based proofs
— applies twice over to IC3/PDR, whose frames are *made of* candidate
invariants.  This module gathers candidate predicates from two
sources and normalizes them into the only shape the frame trapezoid can
hold, width-1 expressions over the system's **state** variables:

* **explicit SVA bodies** (the ``seeds=(...)`` strategy option) — e.g.
  helper assertions a user or an LLM flow already produced;
* **static synthesis** (``seed_static=True``) — the
  :class:`~repro.genai.synthesis.static_engine.StaticSynthesizer`
  candidate generator run directly on the design (symmetric registers,
  one-hot shapes, mined affine relations, ...), i.e. the simulated-LLM
  analysis the Fig. 1 flow uses, feeding PDR instead of Houdini.

Both are functions of the specification and the system, so the query
key that fingerprints those covers the seeds too.

Everything returned here is still a *candidate*: the engine's
admission checks (``init → p`` and ``init ∧ T → p'``) decide membership
of frame 1, and ordinary consecution decides how far each seed
propagates.  A wrong seed costs two SAT probes; it can never unsound
the proof.

Normalization rules: a candidate is dropped when it fails to parse,
needs monitor state (``$past`` chains — frames are single-state), has a
warm-up offset, mentions inputs or unknown signals, or is constant.
"""

from __future__ import annotations

from repro.errors import HdlError, PropertyError
from repro.ir import expr as E
from repro.ir.system import TransitionSystem


#: Most seed predicates one run admission-probes.
SEED_LIMIT = 16


def gather_seed_predicates(system: TransitionSystem,
                           seeds: tuple[str, ...] = (),
                           static: bool = False) -> list[E.Expr]:
    """All seed predicates for one run, deduplicated, capped at
    :data:`SEED_LIMIT`.

    Order encodes priority: explicit seeds first, then static-synthesis
    candidates (heuristic).
    """
    out = compile_seed_predicates(system, list(seeds))
    if static:
        out += static_seed_predicates(system)
    # Exprs are interned, so dict keys dedupe by identity, in order.
    return list(dict.fromkeys(out))[:SEED_LIMIT]


def compile_seed_predicates(system: TransitionSystem,
                            svas: list[str]) -> list[E.Expr]:
    """Compile SVA bodies into state predicates (see module docstring).

    Candidates that fail to parse, resolve, or normalize are silently
    dropped — seeding is best-effort by contract.
    """
    from repro.sva.compile import MonitorContext

    out: list[E.Expr] = []
    for text in svas:
        try:
            ctx = MonitorContext(system)
            prop = ctx.add(text, name="seed")
        except (PropertyError, HdlError):
            continue
        if prop.valid_from > 0 or \
                len(ctx.system.states) != len(system.states):
            continue  # needs monitor state: not a single-state predicate
        good = system.resolve_defines(E.not_(prop.bad))
        if _usable_state_predicate(good, system):
            out.append(good)
    return out


def static_seed_predicates(system: TransitionSystem,
                           spec_text: str = "",
                           max_candidates: int = 12,
                           sim_runs: int = 3,
                           sim_cycles: int = 24,
                           seed: int = 0) -> list[E.Expr]:
    """Candidate predicates from the static synthesis engine.

    Runs the same analytical core the simulated-LLM personas sample
    from, with a lighter simulation budget than the flows use — seeds
    only need to be *plausible*; the admission probes are the filter.
    """
    from repro.genai.synthesis import StaticSynthesizer

    try:
        synthesizer = StaticSynthesizer(system, spec_text=spec_text,
                                        seed=seed, sim_runs=sim_runs,
                                        sim_cycles=sim_cycles)
        candidates = synthesizer.candidates(max_candidates=max_candidates)
    except Exception:
        return []  # a design the synthesizer cannot simulate seeds nothing
    return compile_seed_predicates(system, [c.sva for c in candidates])


def _usable_state_predicate(pred: E.Expr,
                            system: TransitionSystem) -> bool:
    """Width-1, non-constant, and every variable is a state register
    of ``system`` at the matching width (inputs are per-cycle free
    choices — a frame over them would claim nothing about states)."""
    if pred.width != 1 or pred.is_const:
        return False
    variables = [node for node in E.iter_dag([pred]) if node.is_var]
    if not variables:
        return False
    for node in variables:
        state = system.states.get(node.name)
        if state is None or state.width != node.width:
            return False
    return True
