"""Analysis and transformation passes over the IR.

These are deliberately small and composable: variable support
computation through the transition relation, and cone-of-influence
(COI) reduction, which is the workhorse that keeps SAT instances small
when checking properties that touch few registers.

Both read :func:`repro.ir.expr.support`, which is memoised per interned
root, so scoping every property of one design walks each next/init
function, define and constraint once rather than once per property and
fixpoint round.  Nothing is cached on the (mutable) system itself.
"""

from __future__ import annotations

from typing import Iterable

from repro.ir import expr as E
from repro.ir.system import TransitionSystem


def state_support(system: TransitionSystem,
                  roots: Iterable[E.Expr]) -> set[str]:
    """State variables transitively relevant to ``roots``.

    Fixpoint of: a state var is relevant if it appears in a root, or in the
    next/init function of a relevant state var, or in any constraint that
    shares support with the relevant set.  Constraints are handled
    conservatively: any constraint mentioning a relevant variable pulls in
    its entire support.
    """
    states = system.states.keys()
    # A constraint's state support does not change between rounds.
    cond_sups = [sup for cond in system.constraints
                 if (sup := states & E.support(cond))]
    relevant: set[str] = set()
    frontier: set[str] = set()
    for root in roots:
        frontier |= states & E.support(root)
    while frontier:
        relevant |= frontier
        next_frontier: set[str] = set()
        for name in frontier:
            for fn in (system.next.get(name), system.init.get(name)):
                if fn is not None:
                    next_frontier |= states & E.support(fn)
        for sup in cond_sups:
            if not sup.isdisjoint(relevant):
                next_frontier |= sup
        frontier = next_frontier - relevant
    return relevant


def cone_of_influence(system: TransitionSystem,
                      roots: Iterable[E.Expr]) -> TransitionSystem:
    """Restrict ``system`` to the registers that can influence ``roots``.

    Inputs are kept (they are free and cost nothing until bit-blasted);
    defines are kept only if their support survives.  Constraints whose
    support is entirely removed are dropped — they cannot influence the
    roots.  The reduced system is a sound abstraction for safety checking:
    removed registers are unconstrained in it, so a proof on the reduced
    system implies a proof on the full one, and a reduced-system CEX maps
    to a full-system CEX by simulating the removed registers.
    """
    roots = list(roots)
    keep = state_support(system, roots)
    reduced = TransitionSystem(f"{system.name}#coi")
    reduced.inputs = dict(system.inputs)
    for name, v in system.states.items():
        if name in keep:
            reduced.states[name] = v
            if name in system.init:
                reduced.init[name] = system.init[name]
            reduced.next[name] = system.next[name]
    kept_names = set(reduced.inputs) | set(reduced.states)
    for name, e in system.defines.items():
        if E.support(e) <= kept_names:
            reduced.defines[name] = e
    for cond in system.constraints:
        if E.support(cond) <= kept_names:
            reduced.constraints.append(cond)
    reduced.arrays = {name: shape for name, shape in system.arrays.items()
                      if reduced.has_signal(name)}
    return reduced
