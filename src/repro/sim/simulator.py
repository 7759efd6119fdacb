"""Reference simulator for :class:`~repro.ir.system.TransitionSystem`.

The simulator is the executable semantics of the IR: the model checker and
the bit-blaster are both cross-checked against it in the test suite.  It is
also used operationally to mine candidate invariants (:mod:`repro.mine`)
and to screen them against simulated reachable states before any SAT
effort is spent, and by the trace layer to re-derive define values from
a SAT model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from repro.errors import IRError, SimulationError
from repro.ir import expr as E
from repro.ir.system import TransitionSystem


@dataclass
class SimState:
    """A full valuation at one cycle: inputs, states, and defines."""

    time: int
    values: dict[str, int]

    def __getitem__(self, name: str) -> int:
        try:
            return self.values[name]
        except KeyError:
            raise SimulationError(f"signal {name!r} not in simulation state")

    def get(self, name: str, default: int | None = None) -> int | None:
        return self.values.get(name, default)


class Simulator:
    """Steps a transition system cycle by cycle.

    Parameters
    ----------
    system:
        The design to simulate.
    check_constraints:
        When true (default), raise :class:`SimulationError` if a cycle's
        valuation violates a system constraint — simulating outside the
        assumed environment almost always indicates a harness bug.
    """

    def __init__(self, system: TransitionSystem,
                 check_constraints: bool = True):
        system.validate()
        self.system = system
        self.time = 0
        self._state: dict[str, int] = {}
        self._initialized = False
        # One program per cycle: defines, then the constraints that are
        # checked, then every next-state function, shared sub-DAGs once.
        self._defines = list(system.defines)
        self._checked = list(system.constraints) if check_constraints else []
        self._registers = list(system.states)
        self._step = E.program(
            [system.defines[name] for name in self._defines] + self._checked
            + [system.next[name] for name in self._registers])

    # ------------------------------------------------------------------
    # Initialization
    # ------------------------------------------------------------------

    def reset(self, overrides: Mapping[str, int] | None = None) -> None:
        """Enter the initial state.

        Registers with an ``init`` expression take its value (initial
        expressions may only reference other *initialized constants*, not
        inputs).  Registers without one must be given a value through
        ``overrides`` — they are nondeterministic at reset, and simulation
        needs a concrete choice.
        """
        overrides = dict(overrides or {})
        self._state = {}
        env: dict[str, int] = {}
        for name in self.system.states:
            if name in overrides:
                self._state[name] = overrides.pop(name)
            elif name in self.system.init:
                init_expr = self.system.init[name]
                try:
                    self._state[name] = E.evaluate(init_expr, env)
                except IRError:
                    missing = E.support(init_expr) - set(env)
                    raise SimulationError(
                        f"init of {name!r} depends on {sorted(missing)}; "
                        "supply overrides") from None
            else:
                raise SimulationError(
                    f"state {name!r} has no init value; pass an override")
            env[name] = self._state[name]
        if overrides:
            raise SimulationError(
                f"overrides for unknown states: {sorted(overrides)}")
        self.time = 0
        self._initialized = True

    def load_state(self, state_values: Mapping[str, int],
                   time: int = 0) -> None:
        """Jump to an arbitrary (possibly unreachable) state.

        This is how induction-step counterexample pre-states are replayed.
        """
        missing = set(self.system.states) - set(state_values)
        if missing:
            raise SimulationError(f"load_state missing values: {sorted(missing)}")
        self._state = {name: state_values[name] & ((1 << v.width) - 1)
                       for name, v in self.system.states.items()}
        self.time = time
        self._initialized = True

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------

    @property
    def state_values(self) -> dict[str, int]:
        return dict(self._state)

    def peek(self, inputs: Mapping[str, int]) -> SimState:
        """Current-cycle valuation (including defines) without advancing."""
        return SimState(self.time,
                        self.system.env_with_defines(self._env(inputs)))

    def step(self, inputs: Mapping[str, int]) -> SimState:
        """Evaluate the current cycle, then advance the registers.

        Returns the *current* cycle's full valuation (the values a waveform
        would show for this cycle).
        """
        env = self._env(inputs)
        values = self._step.run(env)
        defines = len(self._defines)
        env.update(zip(self._defines, values))
        for cond, holds in zip(self._checked, values[defines:]):
            if not holds:
                raise SimulationError(
                    f"constraint violated at cycle {self.time}: "
                    f"{E.to_sexpr(cond, max_depth=4)}")
        snapshot = SimState(self.time, env)
        self._state = dict(zip(
            self._registers, values[defines + len(self._checked):]))
        self.time += 1
        return snapshot

    def run(self, stimulus: "Iterable[Mapping[str, int]]",
            observer: Callable[[SimState], None] | None = None
            ) -> list[SimState]:
        """Apply a sequence of input maps; returns one SimState per cycle."""
        history: list[SimState] = []
        for inputs in stimulus:
            snap = self.step(inputs)
            history.append(snap)
            if observer is not None:
                observer(snap)
        return history

    # ------------------------------------------------------------------

    def _env(self, inputs: Mapping[str, int]) -> dict[str, int]:
        """The registers plus this cycle's inputs, wrapped to width."""
        if not self._initialized:
            raise SimulationError("call reset() or load_state() first")
        env: dict[str, int] = dict(self._state)
        for name, v in self.system.inputs.items():
            if name not in inputs:
                raise SimulationError(f"missing input {name!r}")
            env[name] = inputs[name] & ((1 << v.width) - 1)
        return env
