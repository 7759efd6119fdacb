"""The IC3/PDR main loop.

Property-directed reachability proves (or refutes) a safety property
without ever unrolling more than one transition step: it grows the
frame trapezoid (:mod:`repro.mc.pdr.frames`) one frame per round,
blocks every bad state the top frame still admits through recursive
proof obligations (:mod:`repro.mc.pdr.obligations`), and terminates when

* an obligation chain reaches the initial states — a **real**
  counterexample, reconstructed frame-by-frame from the obligation
  models into the standard :class:`~repro.trace.trace.Trace`; or
* outward clause propagation makes two adjacent frames coincide — the
  frame above the fixpoint is a **1-step inductive invariant** implying
  the property, returned on the result as ``invariant`` so other
  engines (k-induction via the lemma flow) can re-assume it.

Warm-up semantics (``valid_from`` on properties and lemmas) are handled
by a saturating age counter composed onto the system: ``bad`` is gated
on ``age >= valid_from`` and each lemma on its own threshold, so the
frames themselves never need time-indexed reasoning.  Invariant
certificates are only emitted for warm-up-free runs — an age-gated
certificate would range over the internal counter and be useless to
other engines.

External candidate lemmas (:mod:`repro.mc.pdr.seed`) enter as frame-1
members after the admission checks; everything downstream treats them
exactly like discovered clauses, including outward propagation into the
final invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.ir import expr as E
from repro.ir.system import TransitionSystem
from repro.mc.frame import StatsTimer
from repro.mc.pdr.frames import (Cube, FrameMember, FrameTrapezoid,
                                 PdrContext, negate_cube)
from repro.mc.pdr.lift import CubeLifter
from repro.mc.pdr.obligations import (Obligation, ObligationQueue,
                                      generalize_clause)
from repro.mc.property import SafetyProperty
from repro.mc.result import CheckResult, ProofStats, Status
from repro.sim.simulator import Simulator
from repro.trace.trace import Trace, TraceKind

#: Name of the internal warm-up counter state (see module docstring).
AGE_STATE = "_pdr.age"


@dataclass
class PdrOptions:
    """Tuning for one PDR run.

    ``conflict_budget`` caps the **whole run's** SAT conflicts: every
    query is solved against the remaining allowance, and exhaustion
    turns into a clean UNKNOWN — the property a portfolio engine needs
    to lose races gracefully instead of grinding.  ``gen_budget``
    additionally bounds each individual generalization/seed-admission
    probe (an indeterminate probe just keeps the literal / drops the
    seed).  ``max_obligations`` is the queue-side runaway guard.
    ``lift_cubes`` enables ternary-simulation lifting of predecessor
    cubes (:mod:`repro.mc.pdr.lift`) — on by default, the switch exists
    for A/B parity checks.  The ``seed_*`` options feed
    :mod:`repro.mc.pdr.seed`: explicit SVA bodies, static-synthesis
    candidates mined from the design, and invariants mined from a
    campaign proof store.
    """

    max_frames: int = 25
    conflict_budget: int | None = 50_000
    propagation_budget: int | None = 5_000_000
    gen_budget: int | None = 2000
    max_obligations: int = 20_000
    lift_cubes: bool = True
    seeds: tuple[str, ...] = ()
    seed_static: bool = False
    seed_store_dir: str | None = None
    seed_limit: int = 16


class _Budget(Exception):
    """Internal: an engine budget ran out (result: UNKNOWN)."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def pdr(system: TransitionSystem, prop: SafetyProperty,
        options: PdrOptions | None = None,
        lemmas: list[tuple[E.Expr, int]] | None = None) -> CheckResult:
    """Run IC3/PDR on one property; see the module docstring."""
    opts = options or PdrOptions()
    run = _PdrRun(system, prop, opts, lemmas or [])
    return run.execute()


class _PdrRun:
    """State of one PDR execution (context, frames, queue, stats)."""

    def __init__(self, system: TransitionSystem, prop: SafetyProperty,
                 opts: PdrOptions, lemmas: list[tuple[E.Expr, int]]):
        self.original = system
        self.prop = prop
        self.opts = opts
        self.stats = ProofStats()
        resolved = prop.resolved_against(system)
        self.max_vf = max([resolved.valid_from] +
                          [vf for _g, vf in lemmas], default=0)
        if self.max_vf > 0:
            self.system, self.bad, lemmas = _with_age(
                system, resolved, lemmas, self.max_vf)
        else:
            self.system = system
            self.bad = resolved.bad
        self.ctx = PdrContext(self.system, lemmas)
        self.frames = FrameTrapezoid(self.ctx)
        self.queue = ObligationQueue()
        self.obligations = 0
        self.lifter = CubeLifter(self.ctx, self.bad) \
            if opts.lift_cubes else None

    # ------------------------------------------------------------------

    def execute(self) -> CheckResult:
        with StatsTimer(self.stats):
            try:
                result = self._main_loop()
            except _Budget as exc:
                result = self._result(
                    Status.UNKNOWN, k=self.frames.top,
                    detail=f"{exc.reason} at frame {self.frames.top}")
        self.stats.merge_from(self.ctx.stats_snapshot())
        result.stats = self.stats
        result.detail += f"; {self.ctx.query_summary()}"
        return result

    # ------------------------------------------------------------------
    # Budgets: every query spends from one run-wide conflict allowance
    # ------------------------------------------------------------------

    def _checkpoint(self) -> None:
        """Raise when a run-wide budget is spent.

        Called between queries (obligation pops, generalization probes,
        propagation probes): a single query cannot be interrupted, but
        the run as a whole stays bounded in both conflicts and
        propagations — the latter catches propagation-dominated grinds
        (wide datapaths) that barely conflict at all.
        """
        s = self.ctx.solver.stats
        if self.opts.conflict_budget is not None and \
                s.conflicts >= self.opts.conflict_budget:
            raise _Budget(f"conflict budget "
                          f"({self.opts.conflict_budget}) exhausted")
        if self.opts.propagation_budget is not None and \
                s.propagations >= self.opts.propagation_budget:
            raise _Budget(f"propagation budget "
                          f"({self.opts.propagation_budget}) exhausted")

    def _remaining(self) -> int | None:
        if self.opts.conflict_budget is None:
            return None
        used = self.ctx.solver.stats.conflicts
        return max(1, self.opts.conflict_budget - used)

    def _probe_budget(self) -> int | None:
        """Budget for one best-effort probe (generalization, seeding).

        Doubles as the between-probe budget checkpoint: generalization
        calls this before every probe.
        """
        self._checkpoint()
        remaining = self._remaining()
        if self.opts.gen_budget is None:
            return remaining
        if remaining is None:
            return self.opts.gen_budget
        return min(self.opts.gen_budget, remaining)

    def _solve_or_raise(self, assumptions: list[int]) -> bool:
        """A query whose answer the algorithm *needs*: indeterminate
        means the run's conflict budget is gone — give up cleanly."""
        verdict = self.ctx.solve(assumptions, "bad",
                                 conflict_budget=self._remaining())
        if verdict is None:
            raise _Budget(f"conflict budget "
                          f"({self.opts.conflict_budget}) exhausted")
        return verdict

    def _consecution_sat(self, assumptions: list[int],
                         guard: int) -> bool:
        """Budgeted obligation consecution; retires ``guard`` if the
        budget dies mid-query so the temporary clause never lingers."""
        verdict = self.ctx.solve(assumptions, "consecution",
                                 conflict_budget=self._remaining())
        if verdict is None:
            self.ctx.retire_guard(guard)
            raise _Budget(f"conflict budget "
                          f"({self.opts.conflict_budget}) exhausted")
        return verdict

    def _result(self, status: Status, k: int, detail: str,
                cex: Trace | None = None,
                invariant: list[E.Expr] | None = None) -> CheckResult:
        return CheckResult(self.prop.name, status, k=k, cex=cex,
                           detail=detail, invariant=invariant)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def _main_loop(self) -> CheckResult:
        ctx, frames = self.ctx, self.frames
        bad_lit = ctx.assumption_at(self.bad, 0)

        # 0-step check: a bad initial state needs no frames at all.
        if self._solve_or_raise(list(frames.activation(0)) + [bad_lit]):
            trace = self._trace([ctx.frame_values(0)])
            return self._result(Status.VIOLATED, k=0, cex=trace,
                                detail="bad state at cycle 0")

        self._admit_seeds()

        while frames.top <= self.opts.max_frames:
            k = frames.top
            self.stats.max_depth = k
            # Clear every bad state the top frame still admits.
            while self._solve_or_raise(list(frames.activation(k)) +
                                       [bad_lit]):
                env = ctx.frame_values(0)
                cube = self._predecessor_cube(None)
                cex = self._block(Obligation(cube, k, env))
                if cex is not None:
                    return self._result(
                        Status.VIOLATED, k=cex.length - 1, cex=cex,
                        detail=f"counterexample at depth "
                               f"{cex.length - 1}")
            frames.add_frame()
            fixpoint = frames.propagate(budget_fn=self._probe_budget)
            if fixpoint is not None:
                members = frames.invariant_members(fixpoint)
                seeded = sum(1 for m in members if m.seeded)
                invariant = None
                if self.max_vf == 0:
                    invariant = frames.member_exprs(members)
                    invariant.append(
                        self.system.resolve_defines(self.prop.good))
                return self._result(
                    Status.PROVEN, k=k,
                    detail=f"inductive invariant at frame {fixpoint + 1} "
                           f"({len(members)} members, {seeded} seeded, "
                           f"{self.frames.top} frames)",
                    invariant=invariant)
        return self._result(
            Status.UNKNOWN, k=self.opts.max_frames,
            detail=f"no fixpoint within {self.opts.max_frames} frames")

    # ------------------------------------------------------------------
    # Obligation blocking
    # ------------------------------------------------------------------

    def _block(self, root: Obligation) -> Trace | None:
        """Discharge ``root`` and everything it spawns.

        Returns a counterexample trace if an obligation chain reaches
        the initial states, else None once every obligation is blocked.
        """
        ctx, frames = self.ctx, self.frames
        self.queue.push(root)
        while len(self.queue):
            self.obligations += 1
            if self.obligations > self.opts.max_obligations:
                raise _Budget(f"obligation budget "
                              f"({self.opts.max_obligations}) exhausted")
            self._checkpoint()
            ob = self.queue.pop()
            if ob.level == 0:
                # The query that produced this obligation had the init
                # equations active: its stored env is an initial state.
                return self._trace(ob.chain_envs())
            if frames.blocks_syntactically(ob.cube, ob.level):
                # Already excluded at this level — keep pushing the
                # obligation outward like the UNSAT-consecution path
                # does; those pushes carry clauses toward the fixpoint.
                if ob.level < frames.top:
                    self.queue.push(replace(ob, level=ob.level + 1))
                continue
            guard = ctx.new_guard()
            ctx.guarded_clause(guard, negate_cube(ob.cube), 0)
            assumptions = list(frames.activation(ob.level - 1)) + \
                [guard] + ctx.cube_assumptions(ob.cube, 1)
            if self._consecution_sat(assumptions, guard):
                env = ctx.frame_values(0)
                cube = self._predecessor_cube(ob)
                ctx.retire_guard(guard)
                self.queue.push(Obligation(cube, ob.level - 1, env,
                                           succ=ob))
                self.queue.push(ob)
            else:
                # Ask why before the guard's retirement moves the solver
                # on: the cube literals the refutation never touched
                # need no probe of their own.
                core = ctx.refuted_part(ob.cube, 1)
                ctx.retire_guard(guard)
                clause = generalize_clause(ctx, frames, ob.cube, core,
                                           ob.level,
                                           budget_fn=self._probe_budget)
                frames.add_member(FrameMember(clause=clause), ob.level)
                if ob.level < frames.top:
                    # Re-examine one frame out: obligations that stay
                    # blockable push the proof toward the fixpoint.
                    self.queue.push(replace(ob, level=ob.level + 1))
        return None

    # ------------------------------------------------------------------
    # Predecessor extraction (cube lifting)
    # ------------------------------------------------------------------

    def _predecessor_cube(self, succ: Obligation | None) -> Cube:
        """The current model's time-0 state cube, lifted when safe.

        Must run while the SAT model is still live.  All model reads
        (the concrete cube and the ternary simulation) happen before the
        init-disjointness probe, which is the only solver call here and
        clobbers the model.  ``succ`` is the obligation this state is a
        predecessor of; None means a root (bad-state) cube.
        """
        cube = self.ctx.state_cube(0)
        if self.lifter is None:
            return cube
        if succ is None:
            lifted = self.lifter.lift_root(cube)
        else:
            lifted = self.lifter.lift_predecessor(cube, succ.cube)
        if len(lifted) == len(cube):
            return cube
        if self._avoids_init(lifted):
            return lifted
        return cube

    def _avoids_init(self, cube: Cube) -> bool:
        """Is ``cube`` disjoint from the initial states?

        Obligations wider than the concrete model state may only be
        posed when they exclude every initial state — a blocking clause
        learned from an init-intersecting cube would cut reachable
        states.  That is initiation of the clause ``¬cube``: syntactic
        against constant init bits, a budgeted SAT probe otherwise,
        where an exhausted budget counts as unsafe.
        """
        return self.frames.contains_init(negate_cube(cube),
                                         self._probe_budget)

    # ------------------------------------------------------------------
    # Seeding
    # ------------------------------------------------------------------

    def _admit_seeds(self) -> None:
        """Install externally suggested predicates into frame 1.

        Admission requires ``init → p`` and ``init ∧ T → p'`` (both as
        budgeted probes), which is exactly what membership of ``F_1``
        — an over-approximation of the states reachable in at most one
        step — demands.  Rejected candidates are simply dropped: seeds
        are scheduling hints, never soundness inputs.
        """
        from repro.mc.pdr.seed import gather_seed_predicates

        candidates = gather_seed_predicates(
            self.original, seeds=self.opts.seeds,
            static=self.opts.seed_static,
            store_dir=self.opts.seed_store_dir,
            limit=self.opts.seed_limit)
        ctx, frames = self.ctx, self.frames
        for pred in candidates:
            base = list(frames.activation(0))
            holds_at_init = ctx.solve(
                base + [ctx.assumption_at(E.not_(pred), 0)],
                "initiation", conflict_budget=self._probe_budget())
            if holds_at_init is not False:
                continue
            holds_after_step = ctx.solve(
                base + [ctx.assumption_at(E.not_(pred), 1)],
                "consecution", conflict_budget=self._probe_budget())
            if holds_after_step is not False:
                continue
            frames.add_member(FrameMember(pred=pred, seeded=True), 1)

    # ------------------------------------------------------------------
    # Trace reconstruction
    # ------------------------------------------------------------------

    def _trace(self, envs: list[dict[str, int]]) -> Trace:
        """Re-simulate obligation environments into a consistent trace.

        With cube lifting, an obligation's recorded state values need
        not agree bit-for-bit with what its predecessor's state actually
        steps to — only the bits in the (lifted) cube are pinned.  The
        init-rooted first frame plus the recorded *inputs* determine a
        genuine execution (lifting keeps the constraints and the
        chaining next-state bits fixed), so the trace is rebuilt by
        forward simulation and then projected onto the original design.
        """
        sim = Simulator(self.system, check_constraints=False)
        sim.load_state({name: envs[0].get(name, 0)
                        for name in self.system.states})
        names = list(self.original.inputs) + list(self.original.states)
        frames = []
        for env in envs:
            inputs = {name: env.get(name, 0)
                      for name in self.system.inputs}
            snap = sim.step(inputs)
            frames.append({name: snap[name] for name in names})
        return Trace.from_model_values(
            self.original, frames, TraceKind.BMC_CEX,
            property_name=self.prop.name,
            note=f"pdr counterexample, bad at cycle {len(frames) - 1}")


# ---------------------------------------------------------------------------
# Warm-up (valid_from) composition
# ---------------------------------------------------------------------------


def _with_age(system: TransitionSystem, resolved: SafetyProperty,
              lemma_pairs: list[tuple[E.Expr, int]],
              max_vf: int) -> tuple[TransitionSystem, E.Expr,
                                    list[tuple[E.Expr, int]]]:
    """Compose a saturating age counter onto the system.

    Returns the augmented system, the age-gated bad expression, and the
    age-gated lemma pairs: ``bad`` only counts once the counter reached
    the property's warm-up, and each lemma is assumed only once its own
    warm-up passed (the counter carries it, so every pair's
    ``valid_from`` is 0).
    """
    width = max(1, max_vf.bit_length())
    aug = system.clone(f"{system.name}+pdr_age")
    top = E.const(max_vf, width)
    age = aug.add_state(AGE_STATE, width, init=E.const(0, width))
    aug.set_next(AGE_STATE,
                 E.ite(E.ult(age, top),
                       E.add(age, E.const(1, width)), age))
    bad = E.and_(resolved.bad,
                 E.uge(age, E.const(resolved.valid_from, width)))
    gated = []
    for good, vf in lemma_pairs:
        if vf > 0:
            good = E.or_(E.ult(age, E.const(vf, width)), good)
        gated.append((good, 0))
    return aug, bad, gated
