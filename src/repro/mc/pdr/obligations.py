"""Proof obligations and cube generalization for the PDR engine.

A *proof obligation* ``(cube, level)`` asks the engine to show that no
state in ``cube`` is reachable from frame ``F_{level-1}`` in one step.
Obligations form a chain back from the bad state the top-frame query
produced: a satisfiable consecution query spawns a predecessor
obligation one level down, and an obligation reaching level 0 is a
concrete counterexample (its query was solved with the init equations
active, so its stored environment *is* an initial state).

The queue is a priority heap ordered by (level, age): lowest level
first — the shallowest unresolved obligation is always the one that can
refute fastest, and handling it first keeps frames tight before deeper
obligations are attempted.

:func:`generalize_clause` shrinks a blocking clause the way the solver
says it can be shrunk.  Every UNSAT relative-induction query names, in
its failed-assumption core, the time-1 cube literals the refutation
actually used; the clause over just those literals is relatively
inductive too, so a blocked obligation's clause *starts* from the core
of its own consecution query and every successful drop-one-literal
probe shrinks on to that probe's core — one query can shed many
literals, where blind enumeration pays one per literal.  A core knows
nothing of the initial states, so initiation is restored afterwards by
putting back one literal of the clause being shrunk that agrees with
a constant reset bit (the syntactic rule of
:meth:`~repro.mc.pdr.frames.FrameTrapezoid.contains_init`); when none
can be shown the shrink is not taken.  Probes run under a conflict
budget via :meth:`~repro.sat.solver.Solver.solve_limited` — an
indeterminate probe conservatively keeps the literal, trading clause
strength for bounded latency.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from repro.mc.pdr.frames import (BitLit, Cube, FrameTrapezoid, PdrContext,
                                 _unbudgeted, negate_cube)

_counter = itertools.count()


@dataclass
class Obligation:
    """One pending proof obligation (see module docstring).

    ``env`` is the full input+state valuation of the time-0 model that
    produced the cube — the trace frame this obligation contributes if
    the chain reaches an initial state.  ``succ`` points toward the bad
    state; walking it from a level-0 obligation yields the
    counterexample trace in execution order.
    """

    cube: Cube
    level: int
    env: dict[str, int]
    succ: "Obligation | None" = None
    seq: int = field(default_factory=lambda: next(_counter))

    def chain_envs(self) -> list[dict[str, int]]:
        """Trace frames from this obligation to the bad state, in order."""
        envs = []
        node: Obligation | None = self
        while node is not None:
            envs.append(dict(node.env))
            node = node.succ
        return envs


class ObligationQueue:
    """Min-heap of obligations, lowest level (then oldest) first."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Obligation]] = []

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, obligation: Obligation) -> None:
        heapq.heappush(self._heap,
                       (obligation.level, obligation.seq, obligation))

    def pop(self) -> Obligation:
        return heapq.heappop(self._heap)[2]

    def clear(self) -> None:
        self._heap.clear()


def generalize_clause(ctx: PdrContext, frames: FrameTrapezoid,
                      cube: Cube, core: Cube, level: int,
                      budget_fn=None) -> tuple[BitLit, ...]:
    """Shrink the blocking clause ``¬cube`` by dropping literals.

    ``cube`` is the obligation just blocked at ``level`` and ``core``
    the part of it the blocking refutation used
    (:meth:`PdrContext.refuted_part` of the consecution query).
    Returns a sub-clause of ``¬cube`` (literals in cube order) that
    contains the initial states and is inductive relative to
    ``F_{level-1}``.  Starting from ``¬core``, each position is tried
    once: the clause without that literal must still contain init
    (usually a syntactic answer) and pass the relative-induction probe,
    and a probe that passes shrinks the clause on to its own core.  An
    exhausted per-probe conflict budget keeps the literal.
    ``budget_fn`` is called before every probe and returns that probe's
    conflict budget — the engine uses it as the run-wide budget
    checkpoint too, so a spent run aborts out of generalization instead
    of finishing the pass.  The loop is a single pass — quadratic
    re-passes buy little on the design sizes this engine serves and
    cost a solver call per literal each time.
    """
    if budget_fn is None:
        budget_fn = _unbudgeted
    clause = _shrink_to(ctx, frames, negate_cube(cube), negate_cube(core),
                        budget_fn)
    index = 0
    while index < len(clause) and len(clause) > 1:
        trial = clause[:index] + clause[index + 1:]
        shrunk = None
        if frames.contains_init(trial, budget_fn):
            shrunk = _inductive_core(ctx, frames, trial, level, budget_fn)
        if shrunk is None:
            index += 1          # literal is load-bearing: keep it
        else:
            # Dropped.  What is left of the already-tried prefix stays
            # tried; the literal that now follows it is next.
            index = sum(1 for lit in clause[:index] if lit in shrunk)
            clause = shrunk
    return clause


def _shrink_to(ctx: PdrContext, frames: FrameTrapezoid,
               clause: tuple[BitLit, ...], needed: tuple[BitLit, ...],
               budget_fn) -> tuple[BitLit, ...]:
    """``clause`` cut down to the literals a refutation ``needed``.

    ``clause`` contains init and is relatively inductive, and the query
    that showed it stays UNSAT with only ``¬needed`` assumed at time 1;
    then every clause between ``needed`` and ``clause`` is relatively
    inductive as well.  The core knows nothing of the initial states,
    so if ``needed`` lost initiation one literal goes back in: the
    first of ``clause`` that agrees with a constant reset bit.  When
    there is none the shrink is not taken.
    """
    if len(needed) < len(clause) and \
            not frames.contains_init(needed, budget_fn):
        anchor = frames.init_anchor(clause)
        if anchor is None:
            return clause
        keep = {anchor, *needed}
        needed = tuple(lit for lit in clause if lit in keep)
    ctx.core_literals_dropped += len(clause) - len(needed)
    return needed


def _inductive_core(ctx: PdrContext, frames: FrameTrapezoid,
                    clause: tuple[BitLit, ...], level: int,
                    budget_fn) -> tuple[BitLit, ...] | None:
    """Relative induction probe: ``F_{level-1} ∧ c ∧ T → c'`` ?

    The clause is asserted at time 0 under a throwaway guard (retired
    afterwards so its learnt consequences stay but the clause itself is
    permanently satisfied) and refuted at time 1 via cube assumptions.
    Returns None when the implication fails or the budget ran out, else
    ``clause`` shrunk to the literals the refutation used.
    """
    budget = budget_fn()
    guard = ctx.new_guard()
    ctx.guarded_clause(guard, clause, 0)
    assumptions = list(frames.activation(level - 1)) + [guard] + \
        ctx.cube_assumptions(negate_cube(clause), 1)
    verdict = ctx.solve(assumptions, "generalize", conflict_budget=budget)
    needed = negate_cube(ctx.refuted_part(negate_cube(clause), 1)) \
        if verdict is False else None
    ctx.retire_guard(guard)
    if needed is None:
        return None
    return _shrink_to(ctx, frames, clause, needed, budget_fn)
