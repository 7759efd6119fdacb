"""Stimulus generators for simulation runs.

A stimulus is an iterable of input maps, one per cycle.  The random
generator is constraint-aware: when the design carries environment
constraints over inputs (e.g. ``rst == 0`` or one-hot request lines),
it rejection-samples inputs until the constraints hold.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator, Mapping, Sequence

from repro.errors import SimulationError
from repro.ir import expr as E
from repro.ir.system import TransitionSystem

#: Rejection-sampling budget per cycle before giving up; constraints
#: that depend only on state cannot be satisfied by resampling inputs,
#: so a tight budget surfaces harness errors quickly.
MAX_RETRIES = 200

#: Reads the register values of the cycle about to be driven, e.g.
#: ``lambda: sim.state_values``; asked afresh for every cycle.
StateReader = Callable[[], Mapping[str, int]]


class Stimulus:
    """Base class; subclasses yield one input map per cycle."""

    def cycles(self, system: TransitionSystem,
               state: StateReader | None = None
               ) -> Iterator[dict[str, int]]:
        raise NotImplementedError


class VectorStimulus(Stimulus):
    """Fixed, explicit per-cycle input vectors."""

    def __init__(self, vectors: Sequence[Mapping[str, int]]):
        self.vectors = [dict(v) for v in vectors]

    def cycles(self, system: TransitionSystem,
               state: StateReader | None = None
               ) -> Iterator[dict[str, int]]:
        for v in self.vectors:
            yield dict(v)


class RandomStimulus(Stimulus):
    """Seeded uniform-random inputs with constraint rejection sampling.

    Parameters
    ----------
    length:
        Number of cycles to generate.
    seed:
        RNG seed; runs are fully deterministic given the seed.
    pinned:
        Input values held constant every cycle (e.g. ``{"rst": 0}``).
    """

    def __init__(self, length: int, seed: int = 0,
                 pinned: Mapping[str, int] | None = None):
        self.length = length
        self.seed = seed
        self.pinned = dict(pinned or {})

    def cycles(self, system: TransitionSystem,
               state: StateReader | None = None
               ) -> Iterator[dict[str, int]]:
        rng = random.Random(self.seed)
        # A constraint is enforced when it reads an input and everything
        # else it reads can be looked up: registers only through `state`.
        inputs = set(system.inputs)
        readable = inputs if state is None else inputs | set(system.states)
        check = E.program(
            c for c in system.constraints
            if inputs & (free := E.support(c)) and free <= readable)
        plan = [(name, 1 << v.width, self.pinned.get(name))
                for name, v in system.inputs.items()]
        for _ in range(self.length):
            yield self._sample(rng, plan, check, state)

    def _sample(self, rng: random.Random,
                plan: list[tuple[str, int, int | None]], check: E.Program,
                state: StateReader | None) -> dict[str, int]:
        for _ in range(MAX_RETRIES):
            inputs = {name: rng.randrange(span) if pin is None
                      else pin & (span - 1) for name, span, pin in plan}
            if not len(check):
                return inputs
            env = inputs if state is None else {**inputs, **state()}
            if all(check.run(env)):
                return inputs
        raise SimulationError(
            "could not satisfy input constraints after "
            f"{MAX_RETRIES} retries")
