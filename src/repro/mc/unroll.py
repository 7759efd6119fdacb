"""Time unrolling of transition systems.

The unroller maps every design variable ``v`` to timed copies ``v@t`` and
produces the standard path formulas:

* ``init_constraints()`` — time-0 equations for initialized registers;
* ``transition(t)`` — equations linking states at ``t`` and ``t+1``;
* ``constraints_at(t)`` — the system's environment assumptions at ``t``.

Timed variables are plain IR variables with mangled names, so the same
bit-blaster/CNF pipeline used for combinational formulas handles unrolled
paths with no special cases.

This is the *expression-level* form of unrolling, and no engine uses
it: BMC, k-induction and PDR all stamp frames at the bit level
(``BitBlaster.blast(expr, frame=t)`` plus ``bind``, see
:mod:`repro.mc.frame`).  The unroller stays as the reference the framed
blast and PDR's bound step are tested against, and as the seam the
end-to-end benchmark's tracer counts ``ir.unroll_*`` on.
"""

from __future__ import annotations

from repro.errors import BitBlastError
from repro.ir import expr as E
from repro.ir.expr import timed_name
from repro.ir.system import TransitionSystem


class Unroller:
    """Produces timed copies of a system's expressions."""

    def __init__(self, system: TransitionSystem):
        system.validate()
        self.system = system
        self._maps: dict[int, dict[str, E.Expr]] = {}

    def timed_var(self, name: str, t: int) -> E.Expr:
        """The timed copy of input/state variable ``name`` at time ``t``."""
        return self._mapping(t)[name]

    def at_time(self, expr: E.Expr, t: int) -> E.Expr:
        """Rewrite an expression over design vars into its time-``t`` copy.

        ``expr`` must already be resolved (no define names); the system's
        :meth:`~repro.ir.system.TransitionSystem.resolve_defines` does
        that.  A name that is neither an input nor a state is an error —
        left untimed it would reach the bit-blaster as a free input,
        the same hole ``BitBlaster.signals`` closes for framed blasts.
        """
        mapping = self._mapping(t)
        for name in E.support(expr):
            if name not in mapping:
                raise BitBlastError(
                    f"unknown signal {name!r}: neither an input nor a "
                    "state of the design being unrolled")
        return E.substitute(expr, mapping)

    def init_constraints(self) -> list[E.Expr]:
        """Equations pinning initialized registers at time 0."""
        out = []
        for name, init_expr in self.system.init.items():
            out.append(E.eq(self.timed_var(name, 0),
                            self.at_time(init_expr, 0)))
        return out

    def transition(self, t: int) -> list[E.Expr]:
        """Equations defining states at ``t+1`` from the frame at ``t``."""
        out = []
        for name, next_expr in self.system.next.items():
            out.append(E.eq(self.timed_var(name, t + 1),
                            self.at_time(next_expr, t)))
        return out

    def constraints_at(self, t: int) -> list[E.Expr]:
        """Environment assumptions instantiated at time ``t``."""
        return [self.at_time(c, t) for c in self.system.constraints]

    def state_distinct(self, t1: int, t2: int) -> E.Expr:
        """At least one register differs between frames ``t1`` and ``t2``.

        Used for the optional simple-path constraint that makes k-induction
        complete for finite systems.
        """
        diffs = [E.ne(self.timed_var(name, t1), self.timed_var(name, t2))
                 for name in self.system.states]
        if not diffs:
            return E.false()
        return E.bool_or(*diffs)

    def _mapping(self, t: int) -> dict[str, E.Expr]:
        found = self._maps.get(t)
        if found is None:
            found = {}
            for name, v in self.system.inputs.items():
                found[name] = E.var(timed_name(name, t), v.width)
            for name, v in self.system.states.items():
                found[name] = E.var(timed_name(name, t), v.width)
            self._maps[t] = found
        return found
