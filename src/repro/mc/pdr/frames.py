"""The PDR frame trapezoid over one incremental SAT context.

Property-directed reachability keeps a monotone chain of *frames*
``F_0 ⊆ F_1 ⊆ ... ⊆ F_K`` as state sets (``F_0 = init``, each ``F_i``
over-approximates the states reachable in at most ``i`` steps); as
*clause sets* the containment runs the other way — an outer frame
holds a subset of the inner frames' clauses.  This module owns both
halves of that machinery:

* :class:`PdrContext` — the engines' one frame stamp
  (:class:`~repro.mc.frame.FrameSolver`) holding **one** unrolled step:
  ``state@1`` bound to the next-state functions at time 0, plus the
  time-0 environment constraints and the lemmas.  All PDR queries are solved here under assumptions: per-*level* activation
  literals select which frames participate, time-1 cube literals pose
  "is this state reachable in one step", and throwaway activation
  literals guard the temporary ``¬cube`` clause of a relative-induction
  query.  Nothing is ever retracted from the solver — retired guards
  are pinned false so learnt clauses survive every query (the
  retraction pattern ``tests/test_sat.py`` covers).

* :class:`FrameTrapezoid` — the Python-side ledger of frame *members*
  in delta encoding: a member stored at level ``i`` belongs to every
  frame ``F_1 .. F_i``.  Members are either **blocking clauses**
  (disjunctions of state-register bit literals, discovered by the
  engine's obligation blocking) or **seeded predicates** (arbitrary
  width-1 expressions over state variables, admitted by
  :mod:`repro.mc.pdr.seed` after the level-1 admission checks).
  :meth:`FrameTrapezoid.propagate` pushes members outward after each
  new frame and reports the fixpoint level when two adjacent frames
  coincide — the proof certificate.  A push that fails leaves behind
  the time-0 state of the model that defeated it; while that state
  still satisfies every clause of the member's frame the solver would
  only find it (or another like it) again, so the next round skips the
  probe.  The memo is dropped — and the solver asked as before — as
  soon as a frame clause excludes the state, a seeded predicate sits
  anywhere in the frame (only the solver can evaluate one), the probe
  ran out of budget, or the member leaves its level.

Level 0 is special: the initial-state equations are themselves guarded
by the level-0 activation literal, so a query "relative to ``F_0``"
simply assumes it — no separate init solver exists.  Whether a clause
*contains* ``F_0`` (initiation) rarely needs the solver at all:
:meth:`FrameTrapezoid.contains_init` answers from the registers' constant
reset values and only probes when a deciding literal has none.

Every query is counted by call site (:data:`QUERY_KINDS`), on the
context for the run's ``detail`` line and in the process-wide
``repro_pdr_*`` metric families.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir import expr as E
from repro.ir.system import TransitionSystem
from repro.mc.frame import FrameSolver
from repro.obs import metrics as _metrics

#: The questions PDR puts to its solver, by call site: is a bad state in
#: the top frame, does an obligation's cube have a predecessor, does a
#: shrunk clause stay relatively inductive, does a clause contain the
#: initial states, can a member move one frame out.
QUERY_KINDS = ("bad", "consecution", "generalize", "initiation", "push")

# Bumped once per query / skipped push / core shrink, next to the
# solver call — never inside it (the E10 obs on/off contract).
_M_QUERIES = _metrics.counter(
    "repro_pdr_queries_total", "PDR SAT queries by call site",
    labels=("kind",))
_M_PUSHES_SKIPPED = _metrics.counter(
    "repro_pdr_pushes_skipped_total",
    "push probes skipped because the last defeating state still stands")
_M_CORE_DROPPED = _metrics.counter(
    "repro_pdr_core_literals_dropped_total",
    "clause literals dropped because no refutation used them")

#: One cube/clause literal: register ``name`` bit ``bit`` has ``value``.
#: A *cube* is a conjunction of such literals (a set of states); a
#: *blocking clause* is a disjunction (its negation blocks a cube).
BitLit = tuple[str, int, int]

Cube = tuple[BitLit, ...]


def negate_cube(cube: Cube) -> tuple[BitLit, ...]:
    """The clause blocking ``cube``: every literal flipped."""
    return tuple((name, bit, 1 - value) for name, bit, value in cube)


def _unbudgeted() -> None:
    """Default budget supplier: no per-probe conflict limit."""
    return None


@dataclass(frozen=True)
class FrameMember:
    """One element of a frame: a blocking clause or a seeded predicate.

    Exactly one of ``clause``/``pred`` is set.  ``seeded`` marks members
    admitted from external candidates (explicit seeds or the mined
    pool) rather than discovered by obligation blocking.
    """

    clause: tuple[BitLit, ...] | None = None
    pred: E.Expr | None = None
    seeded: bool = False
    #: The clause's literals as a set (empty for a predicate), built
    #: once: the ledger's subsumption, blocking and frame-admits-state
    #: scans are all set tests against it.
    lits: frozenset[BitLit] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "lits", frozenset(self.clause or ()))

    def describe(self) -> str:
        if self.pred is not None:
            return E.to_sexpr(self.pred, max_depth=4)
        return " | ".join(
            f"{'!' if value == 0 else ''}{name}[{bit}]"
            for name, bit, value in self.clause)


class PdrContext(FrameSolver):
    """The frame stamp of :mod:`repro.mc.frame`, holding PDR's one step.

    Time 0 carries the environment constraints and the lemmas; each
    ``state@1`` is *bound* to its next-state function read at time 0,
    so the transition is functional — no equation clauses — and time-1
    cube literals are the next-state bits themselves.  Everything else
    — frames, init, cubes, temporary blocking clauses — rides on
    assumption literals.  Time-1 constraints are deliberately **not**
    asserted: the trace semantics (matching BMC) require constraints
    only up to the cycle under examination, and successor cubes were
    themselves discovered under their own time-0 constraints.  The
    path is unrooted (init is a guarded frame member, not pinned), so
    every lemma is asserted at both ends of the step — frame
    strengthening that is sound because lemmas hold in every
    reachable state.
    """

    def __init__(self, system: TransitionSystem,
                 lemmas: list[tuple[E.Expr, int]] | None = None):
        super().__init__(system, lemmas)
        #: Queries asked so far, by call site (see :data:`QUERY_KINDS`).
        self.query_mix = dict.fromkeys(QUERY_KINDS, 0)
        self.pushes_skipped = 0
        self.core_literals_dropped = 0
        self.add_constraints(0)
        for name, next_expr in system.next.items():
            self._define(name, 1, next_expr, 0)
        self.assume_lemmas(1)
        # Blast every state at both times so cube literals and model
        # extraction never depend on which registers the transition
        # happens to read.
        self._state_bits = {
            (name, t): self.blaster.blast(v, frame=t)
            for name, v in system.states.items() for t in (0, 1)}

    # ------------------------------------------------------------------
    # Low-level plumbing
    # ------------------------------------------------------------------

    def new_guard(self) -> int:
        """A fresh activation variable (assume +guard to enable)."""
        return self.solver.add_var()

    def retire_guard(self, guard: int) -> None:
        """Permanently disable a guard: its clauses become satisfied."""
        self.solver.add_clause([-guard])

    def guarded_expr(self, guard: int, expr: E.Expr, t: int) -> None:
        """Assert ``guard -> expr@t`` (expr untimed, resolved, width 1)."""
        self.solver.add_clause(
            [-guard, self.cnf.lit_to_dimacs(self.lit_at(expr, t))])

    def guarded_clause(self, guard: int, clause: tuple[BitLit, ...],
                       t: int) -> None:
        """Assert ``guard -> (⋁ literals)@t`` over state bits."""
        self.solver.add_clause(
            [-guard] + [self.bit_dimacs(name, bit, value, t)
                        for name, bit, value in clause])

    def bit_dimacs(self, name: str, bit: int, value: int, t: int) -> int:
        """DIMACS literal asserting state bit ``name[bit] == value@t``."""
        aig_lit = self._state_bits[(name, t)][bit]
        d = self.cnf.lit_to_dimacs(aig_lit)
        return d if value else -d

    def cube_assumptions(self, cube: Cube, t: int) -> list[int]:
        return [self.bit_dimacs(name, bit, value, t)
                for name, bit, value in cube]

    def state_bit_lits(self, name: str, t: int) -> list[int]:
        """The AIG literals of state ``name``'s bits at time ``t``."""
        return list(self._state_bits[(name, t)])

    def solve(self, assumptions: list[int], kind: str,
              conflict_budget: int | None = None) -> bool | None:
        """One query; ``kind`` (a :data:`QUERY_KINDS` name) says which
        of the algorithm's questions it is."""
        self.query_mix[kind] += 1
        if _metrics.metrics_enabled():
            _M_QUERIES.labels(kind).inc()
        return self.solve_limited(assumptions,
                                  conflict_budget=conflict_budget)

    def refuted_part(self, cube: Cube, t: int) -> Cube:
        """The literals of ``cube`` the refutation just found rests on.

        Valid immediately after an UNSAT query that assumed
        ``cube_assumptions(cube, t)``: the solver's failed-assumption
        core says which of them the conflict actually used, and the
        query stays UNSAT with the others left out.
        """
        core = set(self.solver.failed_assumptions())
        return tuple(lit for lit, d in
                     zip(cube, self.cube_assumptions(cube, t)) if d in core)

    def note_core_drop(self, literals: int) -> None:
        self.core_literals_dropped += literals
        if _metrics.metrics_enabled():
            _M_CORE_DROPPED.inc(literals)

    def note_push_skipped(self) -> None:
        self.pushes_skipped += 1
        if _metrics.metrics_enabled():
            _M_PUSHES_SKIPPED.inc()

    # ------------------------------------------------------------------
    # Model extraction (valid immediately after a SAT answer)
    # ------------------------------------------------------------------

    def state_cube(self, t: int = 0) -> Cube:
        """The full state assignment at time ``t`` as a cube."""
        lits: list[BitLit] = []
        for name in self.system.states:
            bits = self._state_bits[(name, t)]
            for i, aig_lit in enumerate(bits):
                lits.append((name, i, int(self.cnf.lit_value(aig_lit))))
        return tuple(lits)

    def query_summary(self) -> str:
        """The query mix for a result's ``detail``, largest kind first:
        ``1240 queries: 760 generalize, 307 consecution, 140 push (81
        skipped), 33 bad``."""
        parts = []
        for kind, n in sorted(self.query_mix.items(),
                              key=lambda item: -item[1]):
            if kind == "push" and self.pushes_skipped:
                parts.append(f"{n} push ({self.pushes_skipped} skipped)")
            elif n:
                parts.append(f"{n} {kind}")
        return f"{self.queries} queries: " + ", ".join(parts)


class FrameTrapezoid:
    """Delta-encoded frames ``F_0 .. F_K`` over a :class:`PdrContext`.

    ``levels[i]`` holds the members whose *highest* frame is ``F_i``;
    frame ``F_j`` is the conjunction of init (j == 0 only) and every
    member at a level ``>= j``.  Each level owns one activation literal;
    a query relative to ``F_j`` assumes the activation literals of
    levels ``j..K``.  Pushing a member outward re-asserts it under the
    next level's activation literal — the superseded copy stays in the
    solver (it is implied) and keeps its learnt consequences alive.
    """

    def __init__(self, ctx: PdrContext):
        self.ctx = ctx
        self.levels: list[list[FrameMember]] = [[], []]  # F_0, F_1
        self._acts: list[int] = [ctx.new_guard(), ctx.new_guard()]
        self._init_bits = _constant_init_bits(ctx.system)
        # Ledger member -> the full time-0 state (as a literal set) of
        # the model that defeated its last push from its current level.
        self._push_witness: dict[FrameMember, frozenset[BitLit]] = {}
        # F_0 is the initial states, guarded by the level-0 literal.
        states = ctx.system.states
        for name, init_expr in ctx.system.init.items():
            ctx.guarded_expr(self._acts[0], E.eq(states[name], init_expr), 0)

    # ------------------------------------------------------------------

    @property
    def top(self) -> int:
        return len(self.levels) - 1

    def add_frame(self) -> None:
        self.levels.append([])
        self._acts.append(self.ctx.new_guard())

    def activation(self, level: int) -> list[int]:
        """Assumption literals selecting frame ``F_level``."""
        return self._acts[level:]

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def add_member(self, member: FrameMember, level: int) -> None:
        """Install ``member`` at ``level`` (it joins ``F_1 .. F_level``).

        Clause members are subsumption-checked both ways: a new clause
        already implied by an equal-or-stronger clause covering at least
        the same frames is skipped outright, and weaker clauses it
        supersedes are dropped from the ledger (their solver copies stay
        — implied clauses are harmless there — but the Python-side scans
        in :meth:`blocks_syntactically` and :meth:`propagate` stop
        paying for them).
        """
        if not (1 <= level <= self.top):
            raise ValueError(f"level {level} outside 1..{self.top}")
        if member.clause is not None:
            new_lits = member.lits
            if any(old.clause is not None and old.lits <= new_lits
                   for old in self._frame(level)):
                return  # subsumed by a stronger, wider member
            for lvl in range(1, level + 1):
                kept = []
                for old in self.levels[lvl]:
                    if old.clause is not None and new_lits <= old.lits:
                        self._push_witness.pop(old, None)
                    else:
                        kept.append(old)
                self.levels[lvl] = kept
        self._assert_at_level(member, level)
        self.levels[level].append(member)

    def _frame(self, level: int):
        """Every member of ``F_level``: the ledger from ``level`` up."""
        for lvl in range(level, self.top + 1):
            yield from self.levels[lvl]

    def _assert_at_level(self, member: FrameMember, level: int) -> None:
        guard = self._acts[level]
        if member.pred is not None:
            self.ctx.guarded_expr(guard, member.pred, t=0)
        else:
            self.ctx.guarded_clause(guard, member.clause, t=0)

    def blocks_syntactically(self, cube: Cube, level: int) -> bool:
        """Is ``cube`` already excluded from ``F_level`` by some clause?

        A clause blocks the cube iff the cube falsifies every literal of
        it, i.e. iff the clause subsumes ``¬cube``.  Predicates never
        answer syntactically (the solver decides).
        """
        blocking = frozenset(negate_cube(cube))
        return any(member.clause is not None and member.lits <= blocking
                   for member in self._frame(level))

    # ------------------------------------------------------------------
    # Initiation
    # ------------------------------------------------------------------

    def contains_init(self, clause: tuple[BitLit, ...],
                      budget_fn=None) -> bool:
        """Does every initial state satisfy ``clause`` (``F_0 → clause``)?

        The one initiation check: generalization asks it of every
        shrunk clause, the engine of every lifted cube (negated).  A
        literal that agrees with a register's constant reset bit is
        true in every initial state, so the clause holds there; a
        clause whose literals all *contradict* constant reset bits is
        false in every initial state.  Only when no literal agrees and
        some literal's register has no constant init does the solver
        decide — under ``budget_fn()``'s conflict budget, an exhausted
        budget counting as "no".
        """
        if self.init_anchor(clause) is not None:
            return True
        if all(lit[:2] in self._init_bits for lit in clause):
            return False
        budget = (budget_fn or _unbudgeted)()
        return not self._init_intersects(clause, budget)

    def init_anchor(self, clause: tuple[BitLit, ...]) -> BitLit | None:
        """The first literal of ``clause`` that agrees with its
        register's constant reset bit, or None.  Such a literal is true
        in every initial state, so any clause holding it contains
        ``F_0``."""
        init_bits = self._init_bits
        for lit in clause:
            if init_bits.get(lit[:2]) == lit[2]:
                return lit
        return None

    def _init_intersects(self, clause: tuple[BitLit, ...],
                         budget: int | None) -> bool:
        """Does some initial state fall *outside* ``clause``?

        The SAT fallback of :meth:`contains_init`.  The query assumes
        the level-0 activation literal (which carries the init
        equations) plus the negated clause as a cube; SAT — or an
        exhausted budget — means an initial state may escape it.
        """
        assumptions = list(self.activation(0)) + \
            self.ctx.cube_assumptions(negate_cube(clause), 0)
        verdict = self.ctx.solve(assumptions, "initiation",
                                 conflict_budget=budget)
        return verdict is not False

    # ------------------------------------------------------------------
    # Outward propagation + fixpoint detection
    # ------------------------------------------------------------------

    def _holds_after_step(self, member: FrameMember, level: int,
                          budget: int | None = None) -> bool | None:
        """Consecution probe: ``F_level ∧ T → member'`` ?

        Returns True when the member can move to ``level + 1``; None
        when an optional conflict budget ran out (treated as "no").
        """
        ctx = self.ctx
        assumptions = list(self.activation(level))
        if member.pred is not None:
            assumptions.append(ctx.assumption_at(E.not_(member.pred), 1))
        else:
            assumptions += ctx.cube_assumptions(
                negate_cube(member.clause), 1)
        verdict = ctx.solve(assumptions, "push", conflict_budget=budget)
        if verdict is None:
            return None
        return not verdict

    def _push_still_defeated(self, member: FrameMember,
                             level: int) -> bool:
        """Would the state that defeated ``member``'s last push from
        ``level`` defeat it again?

        It would iff it is still in ``F_level`` — a full state satisfies
        a clause exactly when it shares a literal with it.  A predicate
        in the frame cannot be read off the state, so the memo is not
        trusted then; a memo that fails is dropped.
        """
        witness = self._push_witness.get(member)
        if witness is None:
            return False
        for other in self._frame(level):
            if other.clause is None or other.lits.isdisjoint(witness):
                del self._push_witness[member]
                return False
        return True

    def propagate(self, budget_fn=None) -> int | None:
        """Push members outward; return the fixpoint level if one forms.

        For each level ``1 .. top-1`` in order, every member that still
        satisfies consecution relative to its own level moves up one.
        If some level empties, ``F_level == F_level+1`` and the frames
        above it form an inductive invariant: that level is returned.
        ``budget_fn`` supplies each probe's conflict budget (and serves
        as the engine's run-budget checkpoint); a probe whose budget
        dies simply keeps its member in place, which is always sound.
        A member whose last defeating state still stands is kept
        without asking (see :meth:`_push_still_defeated`).
        """
        if budget_fn is None:
            budget_fn = _unbudgeted
        ctx = self.ctx
        witnesses = self._push_witness
        for level in range(1, self.top):
            kept: list[FrameMember] = []
            for member in self.levels[level]:
                if self._push_still_defeated(member, level):
                    ctx.note_push_skipped()
                    kept.append(member)
                    continue
                verdict = self._holds_after_step(member, level,
                                                 budget=budget_fn())
                if verdict is True:
                    self._assert_at_level(member, level + 1)
                    self.levels[level + 1].append(member)
                    continue
                kept.append(member)
                if verdict is False:    # the model is live: remember it
                    witnesses[member] = frozenset(ctx.state_cube(0))
            self.levels[level] = kept
            if not kept:
                return level
        return None

    def invariant_members(self, fixpoint_level: int) -> list[FrameMember]:
        """The members of the inductive frame above ``fixpoint_level``."""
        out: list[FrameMember] = []
        for level in range(fixpoint_level + 1, self.top + 1):
            out.extend(self.levels[level])
        return out

    def member_exprs(self, members: list[FrameMember]) -> list[E.Expr]:
        """Frame members as width-1 expressions over the state variables."""
        out = []
        for member in members:
            if member.pred is not None:
                out.append(member.pred)
                continue
            disjuncts = []
            for name, bit, value in member.clause:
                b = E.bit(self.ctx.system.states[name], bit)
                disjuncts.append(b if value else E.not_(b))
            out.append(E.bool_or(*disjuncts))
        return out


def _constant_init_bits(system: TransitionSystem) -> dict[tuple[str, int],
                                                          int]:
    """Bit values of registers whose init is a compile-time constant.

    Mirrors the simulator's reset rule (init expressions may reference
    previously initialized registers); registers with no init or a
    non-constant one are left out, deferring to the SAT probe in
    :meth:`FrameTrapezoid.contains_init`.
    """
    env: dict[str, int] = {}
    bits: dict[tuple[str, int], int] = {}
    for name, v in system.states.items():
        init_expr = system.init.get(name)
        if init_expr is None:
            continue
        resolved = system.resolve_defines(init_expr)
        if E.support(resolved) - set(env):
            continue
        value = E.evaluate(resolved, env)
        env[name] = value
        for i in range(v.width):
            bits[(name, i)] = (value >> i) & 1
    return bits
