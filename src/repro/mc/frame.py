"""The glue between unrolled formulas and the SAT solver.

A :class:`FrameSolver` owns one SAT solver, one AIG, and one bit-blaster,
and exposes expression-level asserts, expression-level assumptions, and
model extraction back to the word level.  BMC and k-induction each drive
one (or two) of these incrementally: clauses for already-unrolled frames
are never re-encoded as the bound grows.

Frames are stamped at the bit level: every method takes *untimed,
resolved* expressions plus a time and lowers them through
``BitBlaster.blast(expr, frame=t)``, so no timed copy of the design is
ever built.  A variable that is neither an input nor a state of the
system raises :class:`~repro.errors.BitBlastError`.

Proven lemmas are placed here and nowhere else: the frame that creates
time ``t`` asserts every lemma that holds there.  On a path rooted by
:meth:`FrameSolver.add_init` a lemma holds from its ``valid_from`` on
(monitor warm-up cycles are exempt); on an unrooted path (the induction
step, PDR's one step) the frames sit at arbitrary late times, so every
lemma holds at every frame.
"""

from __future__ import annotations

import time

from repro.aig.bitblast import BitBlaster
from repro.aig.cnf import CnfBuilder
from repro.aig.graph import negate
from repro.ir import expr as E
from repro.ir.system import TransitionSystem
from repro.mc.result import ProofStats
from repro.sat.solver import Solver
from repro.trace.trace import Trace, TraceKind


class FrameSolver:
    """Incremental SAT context for unrolled transition-system formulas.

    ``lemmas`` are ``(good_expr, valid_from)`` pairs *already proven*
    invariant (see the module docstring for where they are asserted).
    ``solver`` replaces the in-process CDCL solver with anything that
    speaks its interface (the external-binary bridge of
    :mod:`repro.sat.external`).
    """

    def __init__(self, system: TransitionSystem,
                 lemmas: list[tuple[E.Expr, int]] | None = None,
                 solver: Solver | None = None):
        system.validate()
        self.system = system
        self.solver = solver if solver is not None else Solver()
        self.blaster = BitBlaster()
        self.blaster.signals = system.inputs.keys() | system.states.keys()
        self.cnf = CnfBuilder(self.blaster.aig, self.solver)
        self.queries = 0
        self._lemmas = [(system.resolve_defines(g), vf)
                       for g, vf in (lemmas or [])]
        self._rooted = False

    # ------------------------------------------------------------------
    # Assertions / assumptions at the expression level
    # ------------------------------------------------------------------

    def lit_at(self, expr: E.Expr, t: int) -> int:
        """AIG literal of a width-1 expression at time ``t``."""
        return self.blaster.blast_bool(expr, frame=t)

    def assert_at(self, expr: E.Expr, t: int) -> None:
        """Permanently assert a width-1 expression at time ``t``."""
        self.cnf.assert_lit(self.lit_at(expr, t))

    def assumption_at(self, expr: E.Expr, t: int) -> int:
        """DIMACS assumption literal for a width-1 expression at ``t``."""
        return self.cnf.assumption(self.lit_at(expr, t))

    def solve(self, assumptions: list[int] | None = None) -> bool:
        self.queries += 1
        return self.solver.solve(assumptions or [])

    def solve_limited(self, assumptions: list[int] | None = None,
                      conflict_budget: int | None = None) -> bool | None:
        self.queries += 1
        return self.solver.solve_limited(assumptions or [],
                                         conflict_budget=conflict_budget)

    # ------------------------------------------------------------------
    # Frame plumbing
    # ------------------------------------------------------------------

    def add_init(self) -> None:
        """Root the path: pin initialized registers at time 0, then the
        time-0 constraints and lemmas.  A variable-free init defines
        ``s@0`` as its constant bits; one that reads variables stays an
        equation."""
        equations = []
        for name, init_expr in self.system.init.items():
            if E.support(init_expr):
                equations.append((name, init_expr))
            else:
                self._define(name, 0, init_expr, 0)
        for name, init_expr in equations:
            self._define(name, 0, init_expr, 0, bind=False)
        self._rooted = True
        self.add_constraints(0)

    def add_frame(self, t: int) -> None:
        """Define the states at t+1 from frame t, plus constraints and
        lemmas at t+1.

        Time 0 is opened by :meth:`add_init` (a rooted path) or by the
        caller's :meth:`add_constraints` (an unrooted one).
        """
        for name, next_expr in self.system.next.items():
            self._define(name, t + 1, next_expr, t)
        self.add_constraints(t + 1)

    def add_constraints(self, t: int) -> None:
        """Assert the environment assumptions at time ``t``, then the
        lemmas that hold there."""
        for c in self.system.constraints:
            self.assert_at(c, t)
        self.assume_lemmas(t)

    def assume_lemmas(self, t: int) -> None:
        """Assert the lemmas that hold at time ``t`` (all of them on an
        unrooted path)."""
        for g, vf in self._lemmas:
            if vf <= t or not self._rooted:
                self.assert_at(g, t)

    def state_distinct(self, t1: int, t2: int) -> int:
        """AIG literal: some register differs between ``t1`` and ``t2``
        (the simple-path constraint of k-induction)."""
        blaster = self.blaster
        return blaster.aig.or_many(
            negate(blaster.eq_lit(blaster.blast(v, frame=t1),
                                  blaster.blast(v, frame=t2)))
            for v in self.system.states.values())

    def _define(self, name: str, t: int, value: E.Expr, at: int,
                bind: bool = True) -> None:
        """Make ``name@t`` equal ``value`` read at time ``at``.

        Functionally where possible: the timed variable is *bound* to
        the value's literals, so no input, no equation and no clause
        exists for it and constants fold through the AIG.  A timed
        variable some earlier formula already blasted has its inputs;
        it gets the equation instead, as does any caller's ``bind=False``.
        """
        blaster = self.blaster
        tname = E.timed_name(name, t)
        if bind and blaster.var_bits(tname) is None:
            blaster.bind(tname, blaster.blast(value, frame=at))
        else:
            bits = blaster.blast(self.system.states[name], frame=t)
            self.cnf.assert_lit(
                blaster.eq_lit(bits, blaster.blast(value, frame=at)))

    # ------------------------------------------------------------------
    # Model extraction
    # ------------------------------------------------------------------

    def timed_value(self, name: str, t: int) -> int:
        """Value of design signal ``name`` at time ``t`` in the model."""
        tname = E.timed_name(name, t)
        bits = self.blaster.var_bits(tname)
        if bits is None:
            # Neither defined nor mentioned by any formula: free.
            return 0
        return self.cnf.bits_value(bits)

    def frame_values(self, t: int) -> dict[str, int]:
        """Every input and state word at time ``t`` in the model."""
        return {name: self.timed_value(name, t)
                for name in [*self.system.inputs, *self.system.states]}

    def extract_trace(self, length: int, kind: TraceKind,
                      property_name: str | None = None,
                      note: str = "") -> Trace:
        """Pull a full trace of the current model for frames 0..length-1."""
        envs = [self.frame_values(t) for t in range(length)]
        return Trace.from_model_values(self.system, envs, kind,
                                       property_name=property_name,
                                       note=note)

    # ------------------------------------------------------------------

    def stats_snapshot(self) -> ProofStats:
        return ProofStats.from_solver(self.solver.stats, self.queries)


class StatsTimer:
    """Context manager measuring wall time into a ProofStats."""

    def __init__(self, stats: ProofStats):
        self.stats = stats
        self._start = 0.0

    def __enter__(self) -> "StatsTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.stats.wall_seconds += time.perf_counter() - self._start
