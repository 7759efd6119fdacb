"""Ternary-simulation cube lifting for PDR predecessor cubes.

A SAT consecution query hands the engine one concrete predecessor state
— a full assignment to every state bit.  Blocking full-assignment cubes
one state at a time is hopeless on wide datapaths: a 32-bit counter
equality has on the order of ``2^64`` predecessor states that all fail
for the same reason.  *Lifting* drops the state bits that played no part
in the query's outcome before the obligation is posed, so one obligation
(and the blocking clause generalized from it) covers the whole family.

The mechanism is three-valued (0/1/X) simulation over the bit-blaster's
AIG — the very structure the SAT queries are solved against, so no
second encoding of the transition relation exists.  Starting from the
SAT model, each cube state bit is tentatively replaced by X and the cone
of the *required outputs* re-simulated; if every required output still
evaluates to its model value, no choice of that bit can change the
outcome and the literal is dropped:

* for the predecessor of an obligation with cube ``c``, the required
  outputs are the next-state function bits named by ``c``'s literals
  (each pinned to its value in ``c``) plus every time-0 environment
  constraint;
* for a root cube (a bad state found in the top frame), they are ``bad``
  at time 0 plus the constraints.

Keeping the constraints in the required set means every state in the
lifted cube is a *legal* predecessor under the recorded inputs — which
is what lets the engine re-simulate obligation chains into genuine
counterexample traces even though the intermediate models no longer pin
every register.

Lifting never decides soundness by itself: the engine separately checks
that a lifted cube stays disjoint from the initial states and falls back
to the full cube otherwise (a blocking clause learned from an
init-intersecting cube would cut reachable states).
"""

from __future__ import annotations

from repro.ir import expr as E
from repro.mc.pdr.frames import Cube, PdrContext

#: The third simulation value: "either 0 or 1".
X = 2


class CubeLifter:
    """Ternary lifting over one :class:`PdrContext`'s AIG.

    The next-state function bits are the context's bound ``state@1``
    bits; the constraints and ``bad`` at time 0 blast to the nodes the
    context's queries already ask about, so the AIG does not
    meaningfully grow.
    """

    def __init__(self, ctx: PdrContext, bad: E.Expr):
        self.ctx = ctx
        system = ctx.system
        #: (state name, bit) -> AIG literal of its next-state function @0.
        self._ns_lits: dict[tuple[str, int], int] = {
            (name, i): lit for name in system.next
            for i, lit in enumerate(ctx.state_bit_lits(name, 1))}
        self._constraint_lits = [ctx.lit_at(c, 0)
                                 for c in system.constraints]
        self._bad_lit = ctx.lit_at(bad, 0)
        #: (state name, bit) -> AIG input node holding it at time 0.
        self._bit_node: dict[tuple[str, int], int] = {
            (name, i): lit >> 1 for name in system.states
            for i, lit in enumerate(ctx.state_bit_lits(name, 0))}
        self.lifts = 0
        self.dropped_bits = 0

    # ------------------------------------------------------------------

    def lift_root(self, cube: Cube) -> Cube:
        """Lift a bad-state cube: ``bad@0`` must stay true."""
        return self._lift(cube, [(self._bad_lit, 1)])

    def lift_predecessor(self, cube: Cube, succ: Cube) -> Cube:
        """Lift a predecessor cube: the successor cube must stay forced."""
        required = []
        for name, bit, value in succ:
            lit = self._ns_lits.get((name, bit))
            if lit is None:
                # No next-state function: the time-1 bit floats free and
                # any predecessor can reach the required value.
                continue
            required.append((lit, value))
        return self._lift(cube, required)

    # ------------------------------------------------------------------

    def _lift(self, cube: Cube, required: list[tuple[int, int]]) -> Cube:
        """Drop every cube literal whose X leaves ``required`` determined.

        Must run while the SAT model that produced ``cube`` is still the
        solver's current model (all values are read through it).
        """
        if not cube:
            return cube
        required = required + [(lit, 1) for lit in self._constraint_lits]
        aig = self.ctx.blaster.aig
        cnf = self.ctx.cnf

        # Cone of the required outputs.  AIG node ids are topologically
        # ordered (fanins precede their AND), so a sorted node set is a
        # valid evaluation order.
        seen: set[int] = set()
        stack = [lit >> 1 for lit, _value in required]
        leaves: list[int] = []
        while stack:
            node = stack.pop()
            if node == 0 or node in seen:
                continue
            seen.add(node)
            if aig.is_and(node):
                a, b = aig.fanins(node)
                stack.append(a >> 1)
                stack.append(b >> 1)
            else:
                leaves.append(node)
        flat = []
        for node in sorted(seen):
            if aig.is_and(node):
                a, b = aig.fanins(node)
                flat.append((node, a, b))

        vals = [0] * aig.num_nodes
        for node in leaves:
            vals[node] = 1 if cnf.lit_value(node << 1) else 0

        def determined() -> bool:
            for node, a, b in flat:
                va = vals[a >> 1]
                if va != X and a & 1:
                    va ^= 1
                vb = vals[b >> 1]
                if vb != X and b & 1:
                    vb ^= 1
                if va == 0 or vb == 0:
                    vals[node] = 0
                elif va == 1 and vb == 1:
                    vals[node] = 1
                else:
                    vals[node] = X
            for lit, want in required:
                v = vals[lit >> 1]
                if v == X or (v ^ (lit & 1)) != want:
                    return False
            return True

        if not determined():
            # The model should force its own outputs; if it does not
            # (e.g. a required node outside the encoded region), lifting
            # is not safe — keep the concrete cube.
            return cube

        out = []
        bit_node = self._bit_node
        for entry in cube:
            node = bit_node[(entry[0], entry[1])]
            if node not in seen:
                continue            # outside the cone: provably irrelevant
            saved = vals[node]
            vals[node] = X
            if determined():
                continue            # X survived: drop the literal
            vals[node] = saved
            out.append(entry)
        self.lifts += 1
        self.dropped_bits += len(cube) - len(out)
        if not out:
            # An empty cube would claim *every* state reaches the target
            # — true here, but useless as an obligation (its negation is
            # the empty clause).  Keep the concrete cube instead.
            return cube
        return tuple(out)
