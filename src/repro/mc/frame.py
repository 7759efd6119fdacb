"""The glue between unrolled formulas and the SAT solver.

A :class:`FrameSolver` owns one SAT solver, one AIG, and one bit-blaster,
and exposes expression-level asserts, expression-level assumptions, and
model extraction back to the word level.  BMC and k-induction each drive
one (or two) of these incrementally: clauses for already-unrolled frames
are never re-encoded as the bound grows.
"""

from __future__ import annotations

import time

from repro.aig.bitblast import BitBlaster
from repro.aig.cnf import CnfBuilder
from repro.ir import expr as E
from repro.ir.system import TransitionSystem
from repro.mc.result import ProofStats
from repro.mc.unroll import Unroller, timed_name
from repro.sat.solver import Solver
from repro.trace.trace import Trace, TraceKind


class FrameSolver:
    """Incremental SAT context for unrolled transition-system formulas."""

    def __init__(self, system: TransitionSystem):
        self.system = system
        self.unroller = Unroller(system)
        self.solver = Solver()
        self.blaster = BitBlaster()
        self.cnf = CnfBuilder(self.blaster.aig, self.solver)
        self.queries = 0

    # ------------------------------------------------------------------
    # Assertions / assumptions at the expression level
    # ------------------------------------------------------------------

    def assert_expr(self, timed_expr: E.Expr) -> None:
        """Permanently assert a width-1 timed expression."""
        lit = self.blaster.blast_bool(timed_expr)
        self.cnf.assert_lit(lit)

    def assert_at(self, expr: E.Expr, t: int) -> None:
        """Assert an (untimed, resolved) expression at time ``t``."""
        self.assert_expr(self.unroller.at_time(expr, t))

    def assumption_for(self, timed_expr: E.Expr) -> int:
        """DIMACS assumption literal for a width-1 timed expression."""
        lit = self.blaster.blast_bool(timed_expr)
        return self.cnf.assumption(lit)

    def solve(self, assumptions: list[int] | None = None) -> bool:
        self.cnf.encode_new_nodes()
        self.queries += 1
        return self.solver.solve(assumptions or [])

    def solve_limited(self, assumptions: list[int] | None = None,
                      conflict_budget: int | None = None) -> bool | None:
        self.cnf.encode_new_nodes()
        self.queries += 1
        return self.solver.solve_limited(assumptions or [],
                                         conflict_budget=conflict_budget)

    # ------------------------------------------------------------------
    # Frame plumbing
    # ------------------------------------------------------------------

    def add_init(self) -> None:
        """Pin initialized registers at time 0, then the time-0
        constraints.  A variable-free init defines ``s@0`` as its
        constant bits; one that reads variables stays an equation."""
        un = self.unroller
        equations = []
        for name, init_expr in self.system.init.items():
            if E.support(init_expr):
                equations.append(E.eq(un.timed_var(name, 0),
                                      un.at_time(init_expr, 0)))
            else:
                self._define(name, 0, init_expr)
        for eq_expr in equations:
            self.assert_expr(eq_expr)
        for c in un.constraints_at(0):
            self.assert_expr(c)

    def add_frame(self, t: int) -> None:
        """Define the states at t+1 from frame t, plus constraints at t+1.

        Constraints at time 0 are added by :meth:`add_init` (BMC) or by the
        caller (induction step case, which has no init).
        """
        un = self.unroller
        for name, next_expr in self.system.next.items():
            self._define(name, t + 1, un.at_time(next_expr, t))
        for c in un.constraints_at(t + 1):
            self.assert_expr(c)

    def _define(self, name: str, t: int, value: E.Expr) -> None:
        """Make ``name@t`` equal the timed expression ``value``.

        Functionally where possible: the timed variable is *bound* to
        the value's literals, so no input, no equation and no clause
        exists for it and constants fold through the AIG.  A timed
        variable some earlier formula already blasted has its inputs;
        it gets the equation instead.
        """
        blaster = self.blaster
        tname = timed_name(name, t)
        if blaster.var_bits(tname) is None:
            blaster.bind(tname, blaster.blast(value))
        else:
            self.assert_expr(E.eq(self.unroller.timed_var(name, t), value))

    # ------------------------------------------------------------------
    # Model extraction
    # ------------------------------------------------------------------

    def timed_value(self, name: str, t: int) -> int:
        """Value of design signal ``name`` at time ``t`` in the model."""
        tname = timed_name(name, t)
        bits = self.blaster.var_bits(tname)
        if bits is None:
            # Neither defined nor mentioned by any formula: free.
            return 0
        return self.cnf.bits_value(bits)

    def extract_trace(self, length: int, kind: TraceKind,
                      property_name: str | None = None,
                      note: str = "") -> Trace:
        """Pull a full trace of the current model for frames 0..length-1."""
        envs = []
        for t in range(length):
            env = {}
            for name in list(self.system.inputs) + list(self.system.states):
                env[name] = self.timed_value(name, t)
            envs.append(env)
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
