"""Frame seeding: externally suggested invariants for the PDR engine.

The paper's thesis — generated lemmas strengthen induction-based proofs
— applies twice over to IC3/PDR, whose frames are *made of* candidate
invariants.  This module gathers candidate predicates from two
sources and normalizes them into the only shape the frame trapezoid can
hold, width-1 expressions over the system's **state** variables:

* **explicit SVA bodies** (the ``seeds=(...)`` strategy option) — e.g.
  helper assertions a user or an LLM flow already produced;
* **mined candidates** (``seed_static=True``) — the
  :class:`~repro.mine.static_engine.StaticSynthesizer` pool for the
  design (symmetric registers, one-hot shapes, mined affine relations,
  ...), the same pool the simulated LLM's personas sample, feeding PDR
  instead of Houdini.

Both are functions of the specification and the system, so the query
key that fingerprints those covers the seeds too.

Everything returned here is still a *candidate*: the engine's
admission checks (``init → p`` and ``init ∧ T → p'``) decide membership
of frame 1, and ordinary consecution decides how far each seed
propagates.  A wrong seed costs two SAT probes; it can never unsound
the proof.

Normalization rules: a candidate is dropped when it has no single-state
predicate (:func:`~repro.mine.candidates.state_predicate`: it fails to
parse, has a warm-up offset or needs monitor state — frames are
single-state), mentions inputs or unknown signals, or is constant.
"""

from __future__ import annotations

from repro.ir import expr as E
from repro.ir.system import TransitionSystem
from repro.mine.candidates import state_predicate
from repro.mine.static_engine import StaticSynthesizer


#: Most seed predicates one run admission-probes.
SEED_LIMIT = 16


def gather_seed_predicates(system: TransitionSystem,
                           seeds: tuple[str, ...] = (),
                           static: bool = False) -> list[E.Expr]:
    """All seed predicates for one run, deduplicated, capped at
    :data:`SEED_LIMIT`.

    Order encodes priority: explicit seeds first, then mined candidates
    (heuristic).
    """
    out = compile_seed_predicates(system, list(seeds))
    if static:
        out += static_seed_predicates(system)
    # Exprs are interned, so dict keys dedupe by identity, in order.
    return list(dict.fromkeys(out))[:SEED_LIMIT]


def compile_seed_predicates(system: TransitionSystem,
                            svas: list[str]) -> list[E.Expr]:
    """Compile SVA bodies into state predicates (see module docstring).

    Candidates that fail to compile or normalize are silently dropped —
    seeding is best-effort by contract.
    """
    out: list[E.Expr] = []
    for text in svas:
        good = state_predicate(system, text)
        if good is not None and _usable_state_predicate(good, system):
            out.append(good)
    return out


def static_seed_predicates(system: TransitionSystem) -> list[E.Expr]:
    """Predicates from the design's mined candidate pool."""
    try:
        candidates = StaticSynthesizer(system).candidates()
    except Exception:
        return []  # a design the miner cannot simulate seeds nothing
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
