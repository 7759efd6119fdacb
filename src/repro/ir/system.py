"""Synchronous transition systems over the bit-vector IR.

A :class:`TransitionSystem` is the formal model every design elaborates to:

* **inputs** — free variables chosen fresh each cycle;
* **states** — registers, each with an optional initial-value expression and
  a mandatory next-state expression over current inputs/states;
* **defines** — named combinational signals (wires), stored fully resolved
  as expressions over inputs and states only, so downstream passes never
  need a name environment;
* **constraints** — width-1 expressions assumed to hold at every cycle
  (environment assumptions, e.g. ``rst == 0`` during proofs, or proven
  lemmas promoted to assumptions).

The model-checking semantics: an execution is a sequence of full variable
assignments where cycle 0 satisfies every initial-value equation (if the
run is *initialized*), each adjacent pair satisfies every next-state
equation, and every cycle satisfies every constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.errors import SystemError_
from repro.ir import expr as E


@dataclass(frozen=True)
class Signal:
    """A named, typed signal: the unit of tracing and name resolution."""

    name: str
    width: int
    kind: str  # "input" | "state" | "define"

    def __post_init__(self) -> None:
        if self.kind not in ("input", "state", "define"):
            raise SystemError_(f"bad signal kind {self.kind!r}")


class TransitionSystem:
    """Mutable builder + immutable-ish consumer view of a synchronous design.

    The mutating ``add_*`` methods are used by the HDL elaborator and the SVA
    monitor compiler; everything downstream treats the object as read-only.
    ``clone()`` produces an independent copy so monitors can be layered on a
    design without mutating the registry's master copy.
    """

    def __init__(self, name: str):
        self.name = name
        self.inputs: dict[str, E.Expr] = {}
        self.states: dict[str, E.Expr] = {}
        self.init: dict[str, E.Expr] = {}
        self.next: dict[str, E.Expr] = {}
        self.defines: dict[str, E.Expr] = {}
        self.constraints: list[E.Expr] = []
        # Liveness payloads (AIGER 1.9 justice/fairness sections).  They
        # ride along through import/export untouched; no engine consumes
        # them yet, so checks on justice properties must answer UNKNOWN.
        self.justice: list[list[E.Expr]] = []
        self.fairness: list[E.Expr] = []
        # Unpacked-array shapes, name -> (elem_width, n_elems): the signal
        # is one flat vector, an index on it reads the element (hdl/lower).
        self.arrays: dict[str, tuple[int, int]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _check_fresh(self, name: str) -> None:
        if name in self.inputs or name in self.states or name in self.defines:
            raise SystemError_(f"duplicate signal name {name!r} in {self.name}")

    def add_input(self, name: str, width: int) -> E.Expr:
        """Declare a primary input; returns its variable expression."""
        self._check_fresh(name)
        v = E.var(name, width)
        self.inputs[name] = v
        return v

    def add_state(self, name: str, width: int,
                  init: E.Expr | None = None,
                  next_: E.Expr | None = None) -> E.Expr:
        """Declare a register; ``next_`` may be supplied later via set_next."""
        self._check_fresh(name)
        v = E.var(name, width)
        self.states[name] = v
        if init is not None:
            self.set_init(name, init)
        if next_ is not None:
            self.set_next(name, next_)
        return v

    def set_init(self, name: str, value: E.Expr) -> None:
        if name not in self.states:
            raise SystemError_(f"set_init: {name!r} is not a state variable")
        if value.width != self.states[name].width:
            raise SystemError_(
                f"set_init {name!r}: width {value.width} != "
                f"{self.states[name].width}")
        self.init[name] = value

    def set_next(self, name: str, value: E.Expr) -> None:
        if name not in self.states:
            raise SystemError_(f"set_next: {name!r} is not a state variable")
        if value.width != self.states[name].width:
            raise SystemError_(
                f"set_next {name!r}: width {value.width} != "
                f"{self.states[name].width}")
        self.next[name] = value

    def add_define(self, name: str, value: E.Expr) -> E.Expr:
        """Name a combinational expression (resolved over inputs/states)."""
        self._check_fresh(name)
        for free in E.support(value):
            if free not in self.inputs and free not in self.states:
                raise SystemError_(
                    f"define {name!r} references unresolved signal {free!r}")
        self.defines[name] = value
        return value

    def add_constraint(self, cond: E.Expr) -> None:
        """Assume ``cond`` (width-1) at every cycle."""
        if cond.width != 1:
            raise SystemError_("constraints must be 1-bit expressions")
        self.constraints.append(cond)

    def add_justice(self, conds: list[E.Expr]) -> None:
        """Record a justice (liveness) obligation: every ``cond`` in the
        set must hold infinitely often on a witness run."""
        for cond in conds:
            if cond.width != 1:
                raise SystemError_(
                    "justice conditions must be 1-bit expressions")
        self.justice.append(list(conds))

    def add_fairness(self, cond: E.Expr) -> None:
        """Record a fairness assumption (holds infinitely often)."""
        if cond.width != 1:
            raise SystemError_("fairness conditions must be 1-bit "
                               "expressions")
        self.fairness.append(cond)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def lookup(self, name: str) -> E.Expr:
        """Resolve a signal name to its expression (var or define body)."""
        if name in self.inputs:
            return self.inputs[name]
        if name in self.states:
            return self.states[name]
        if name in self.defines:
            return self.defines[name]
        raise SystemError_(f"unknown signal {name!r} in {self.name}")

    def has_signal(self, name: str) -> bool:
        return (name in self.inputs or name in self.states
                or name in self.defines)

    def width_of(self, name: str) -> int:
        return self.lookup(name).width

    def signals(self) -> Iterator[Signal]:
        """All named signals, inputs first, then states, then defines."""
        for name, v in self.inputs.items():
            yield Signal(name, v.width, "input")
        for name, v in self.states.items():
            yield Signal(name, v.width, "state")
        for name, e in self.defines.items():
            yield Signal(name, e.width, "define")

    def state_names(self) -> list[str]:
        return list(self.states)

    def validate(self) -> None:
        """Check internal consistency; raises :class:`SystemError_`."""
        for name in self.states:
            if name not in self.next:
                raise SystemError_(
                    f"state {name!r} has no next-state function")
        known = set(self.inputs) | set(self.states)
        pairs = list(self.next.items()) + list(self.init.items())
        liveness = self.fairness + [c for js in self.justice for c in js]
        # Memoised supports make the common all-known case a set check
        # per root; only a bad name sends us back to say where it was.
        roots = [e for _, e in pairs] + self.constraints + liveness
        if all(E.support(e) <= known for e in roots):
            return
        for name, e in pairs:
            for free in E.support(e):
                if free not in known:
                    raise SystemError_(
                        f"next/init of {name!r} references unknown "
                        f"signal {free!r}")
        for cond in self.constraints:
            for free in E.support(cond):
                if free not in known:
                    raise SystemError_(
                        f"constraint references unknown signal {free!r}")
        for cond in liveness:
            for free in E.support(cond):
                if free not in known:
                    raise SystemError_(
                        f"justice/fairness condition references unknown "
                        f"signal {free!r}")

    # ------------------------------------------------------------------
    # Copying / composition
    # ------------------------------------------------------------------

    def clone(self, name: str | None = None) -> "TransitionSystem":
        """Independent shallow copy (expressions are immutable, so shared)."""
        other = TransitionSystem(name or self.name)
        other.inputs = dict(self.inputs)
        other.states = dict(self.states)
        other.init = dict(self.init)
        other.next = dict(self.next)
        other.defines = dict(self.defines)
        other.constraints = list(self.constraints)
        other.justice = [list(conds) for conds in self.justice]
        other.fairness = list(self.fairness)
        other.arrays = dict(self.arrays)
        return other

    def resolve_defines(self, root: E.Expr) -> E.Expr:
        """Replace references to define names inside ``root``.

        Properties are parsed against the *signal namespace* which includes
        defines; this rewrites define variables into their bodies so that the
        result ranges over inputs and states only.  Iterates to a fixpoint
        (defines are acyclic by construction).
        """
        current = root
        for _ in range(len(self.defines) + 1):
            free = E.support(current)
            mapping = {n: self.defines[n] for n in free if n in self.defines}
            if not mapping:
                return current
            current = E.substitute(current, mapping)
        raise SystemError_("define resolution did not converge (cycle?)")

    def env_with_defines(self, env: Mapping[str, int]) -> dict[str, int]:
        """Extend an input/state valuation with evaluated define values."""
        full = dict(env)
        exprs = list(self.defines.items())
        values = E.evaluate_many([e for _, e in exprs], env)
        for (name, _), value in zip(exprs, values):
            full[name] = value
        return full

    def __repr__(self) -> str:
        return (f"TransitionSystem({self.name!r}, "
                f"{len(self.inputs)} inputs, {len(self.states)} states, "
                f"{len(self.defines)} defines, "
                f"{len(self.constraints)} constraints)")
