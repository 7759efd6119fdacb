"""Simulation-based screening of candidate invariants.

Before any SAT effort is spent on an LLM-emitted candidate assertion, the
flows check it against states reached by randomized simulation from reset.
A candidate falsified by a simulated reachable state is certainly not an
invariant; the screen is cheap, sound (never discards a true invariant),
and mirrors what a verification engineer does when triaging LLM output.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.ir import expr as E
from repro.ir.system import TransitionSystem
from repro.sim.simulator import Simulator
from repro.sim.stimulus import RandomStimulus


@dataclass
class ScreenReport:
    """Outcome of screening one candidate expression."""

    passed: bool
    cycles_checked: int
    failed_at: int | None = None
    failing_env: dict[str, int] | None = None


def screen_invariants(system: TransitionSystem,
                      candidates: list[E.Expr],
                      runs: int = 8,
                      cycles_per_run: int = 40,
                      seed: int = 0,
                      pinned: dict[str, int] | None = None
                      ) -> list[ScreenReport]:
    """Check each width-1 candidate on simulated reachable states.

    Every candidate is evaluated on every cycle of ``runs`` random runs of
    ``cycles_per_run`` cycles from the initial state.  Reports are returned
    in candidate order.  Candidates are evaluated against the *pre-state*
    environment of each cycle (same convention the model checker uses).
    """
    reports = [ScreenReport(passed=True, cycles_checked=0)
               for _ in candidates]
    resolved = [system.resolve_defines(c) for c in candidates]
    alive = list(range(len(candidates)))
    sim = Simulator(system, check_constraints=False)
    for run_index in range(runs):
        if not alive:
            break
        try:
            sim.reset()
        except SimulationError:
            # Designs with nondeterministic reset are screened from the
            # all-zero state, which is always reachable-equivalent for the
            # shipped designs.
            sim.load_state({name: 0 for name in system.states})
        stimulus = RandomStimulus(cycles_per_run, seed=seed + run_index,
                                  pinned=pinned)
        # All live candidates are one program over the cycle's snapshot;
        # it is rebuilt only when a candidate dies.
        live = E.program(resolved[i] for i in alive)
        checked = 0
        for inputs in stimulus.cycles(system, lambda: sim.state_values):
            snap = sim.step(inputs)
            checked += 1
            verdicts = live.run(snap.values)
            if all(verdicts):
                continue
            for i, holds in zip(alive, verdicts):
                if not holds:
                    reports[i] = ScreenReport(
                        False, reports[i].cycles_checked + checked,
                        failed_at=snap.time, failing_env=snap.values)
            alive = [i for i, holds in zip(alive, verdicts) if holds]
            if not alive:
                break
            live = E.program(resolved[i] for i in alive)
        for i in alive:
            reports[i].cycles_checked += checked
    return reports
