"""Demand-driven Tseitin transformation from AIGs to CNF.

:class:`CnfBuilder` hands the solver only what somebody asks for: the
first request for a literal's DIMACS image (:meth:`lit_to_dimacs`, hence
``assert_lit`` / ``assert_clause`` / ``assumption``) encodes the part of
that literal's fanin cone that has no image yet, and nothing else.  The
model checker keeps blasting new unrolled frames into the same
(monotonically growing) AIG; next-state logic that no asserted or
assumed literal reaches never costs a variable or a clause.  DIMACS
variable 1 is reserved as the constant-true variable, pinned by a unit
clause; this keeps constant literals uniform instead of special-casing
them in every clause.

The AIG is AND-only, but its builders write XOR and multiplexers as
three ANDs — ``AND(¬AND(s, u), ¬AND(¬s, w))`` is ``s ? ¬u : ¬w``.  A row
of that shape is encoded as the gate it was built from: ``s``, ``u`` and
``w`` are encoded and the solver's fused ``add_ite_gate`` stands for the
row with one variable and four ternary clauses (six for a multiplexer
that is not an XOR); the two inner ANDs get no variable unless something
else asks for them.  Measured on the shipped
ECC pipeline's k-induction query: 1 233 variables / 739 k propagations
encoding every row, 910 / 604 k encoding the requested cone only,
533 / 291 k with the gate shapes.

Every AIG node maps to a *signed* DIMACS literal, not to a variable of its
own: the solver's gate calls answer with an existing literal when an
operand is already decided at level 0, and only an open gate gets a
fresh variable and its clauses.  Several nodes may therefore share a
literal, in either polarity.  A node that never got an image is still
readable from a model: :meth:`lit_value` evaluates it from its fanins.
"""

from __future__ import annotations

from typing import Sequence

from repro.aig.graph import AIG
from repro.sat.solver import Solver


def _operands(aig: AIG, node: int) -> tuple[int, ...]:
    """The AIG literals ``node`` is encoded over: none for an input, the
    two fanins of an AND, ``(s, t, e)`` for a row of the ITE shape."""
    pair = aig.row(node)
    if pair is None:
        return ()
    a, b = pair
    if a & b & 1:
        left = aig.row(a >> 1)
        right = aig.row(b >> 1)
        if left is not None and right is not None:
            # node = ¬(p ∧ q) ∧ ¬(r ∧ s): a literal on one side whose
            # complement is on the other selects between the negated rest.
            p, q = left
            r, s = right
            if p ^ 1 == r:
                return (p, q ^ 1, s ^ 1)
            if p ^ 1 == s:
                return (p, q ^ 1, r ^ 1)
            if q ^ 1 == r:
                return (q, p ^ 1, s ^ 1)
            if q ^ 1 == s:
                return (q, p ^ 1, r ^ 1)
    return pair


class CnfBuilder:
    """Maintains the AIG-to-DIMACS mapping and feeds a SAT solver."""

    def __init__(self, aig: AIG, solver: Solver):
        self.aig = aig
        self.solver = solver
        const_true = solver.add_var()
        solver.add_clause([const_true])  # var 1 is TRUE
        # Signed DIMACS literal per AIG node, 0 while nobody has asked
        # for the node.  Node 0 is the constant FALSE.
        self._node_lit: list[int] = [-const_true]
        # Per-model state, reset by ``_model_frontier`` when the solver
        # has solved since (``_epoch`` is its solve count): node values
        # read or derived under that model, and the first variable it
        # cannot have because an encode allocated it afterwards.
        self._epoch = -1
        self._values: dict[int, bool] = {}
        self._young_from = 0

    # ------------------------------------------------------------------

    def lit_to_dimacs(self, lit: int) -> int:
        """DIMACS literal for an AIG literal (encodes its cone on a miss)."""
        node = lit >> 1
        node_lit = self._node_lit
        if node >= len(node_lit) or not node_lit[node]:
            self.encode_new_nodes(lit)
        d = node_lit[node]
        return -d if lit & 1 else d

    def encode_new_nodes(self, *roots: int) -> None:
        """Give every node in the cones of the ``roots`` literals that has
        no DIMACS literal yet one: a fresh variable per input, the
        solver's gate literal per AND / ITE-shaped row.  Node ids are
        topologically ordered, so the sorted cone is an encoding order."""
        node_lit = self._node_lit
        aig = self.aig
        grown = aig.num_nodes - len(node_lit)
        if grown > 0:
            node_lit += [0] * grown
        cone: dict[int, tuple[int, ...]] = {}
        stack = [lit >> 1 for lit in roots]
        while stack:
            node = stack.pop()
            if node_lit[node] or node in cone:
                continue
            operands = cone[node] = _operands(aig, node)
            for lit in operands:
                stack.append(lit >> 1)
        solver = self.solver
        self._model_frontier()      # pin it before allocating past it
        for node in sorted(cone):
            operands = cone[node]
            if not operands:
                node_lit[node] = solver.add_var()
                continue
            images = [-node_lit[lit >> 1] if lit & 1 else node_lit[lit >> 1]
                      for lit in operands]
            node_lit[node] = solver.add_and_gate(*images) \
                if len(images) == 2 else solver.add_ite_gate(*images)

    def assert_lit(self, lit: int) -> None:
        """Add a unit clause forcing an AIG literal true."""
        self.solver.add_clause([self.lit_to_dimacs(lit)])

    def assert_clause(self, lits: Sequence[int]) -> None:
        """Add a clause over AIG literals."""
        self.solver.add_clause([self.lit_to_dimacs(lit)
                                for lit in lits])

    def assumption(self, lit: int) -> int:
        """DIMACS literal suitable for use in ``solve(assumptions=...)``."""
        return self.lit_to_dimacs(lit)

    def lit_value(self, lit: int) -> bool:
        """Value of an AIG literal in the solver's current model.

        A node nobody had asked for when the model was found has no
        value in it; it reads as what the AIG computes from its fanins,
        with such inputs (which no clause constrained) at False.
        """
        node = lit >> 1
        node_lit = self._node_lit
        d = node_lit[node] if node < len(node_lit) else 0
        if d and abs(d) < self._model_frontier():
            value = self.solver.model_value(abs(d)) ^ (d < 0)
        else:
            value = self._evaluate(node)
        return value ^ bool(lit & 1)

    def _model_frontier(self) -> int:
        """The first solver variable the current model cannot have
        (everything an encode allocated since the last solve); starts a
        new epoch of per-model state when there has been a solve."""
        solver = self.solver
        if self._epoch != solver.stats.solves:
            self._epoch = solver.stats.solves
            self._values = {}
            self._young_from = solver.num_vars() + 1
        return self._young_from

    def _evaluate(self, root: int) -> bool:
        """Value of a node the current model has no variable for.

        Walks down to the frontier the model does have, evaluates back
        up; everything met on the way is remembered until the next
        solve, so reading a whole trace pays for each unencoded cone
        once.
        """
        solver = self.solver
        young = self._model_frontier()
        values = self._values
        node_lit = self._node_lit
        encoded = len(node_lit)
        row = self.aig.row
        cone = set()
        stack = [root]
        while stack:
            node = stack.pop()
            if node in values or node in cone:
                continue
            d = node_lit[node] if node < encoded else 0
            if d and abs(d) < young:
                values[node] = solver.model_value(abs(d)) ^ (d < 0)
                continue
            cone.add(node)
            pair = row(node)
            if pair is not None:
                stack += (pair[0] >> 1, pair[1] >> 1)
        for node in sorted(cone):
            pair = row(node)
            if pair is None:
                values[node] = False
                continue
            a, b = pair
            values[node] = (values[a >> 1] ^ bool(a & 1)) and \
                (values[b >> 1] ^ bool(b & 1))
        return values[root]

    def bits_value(self, lits: Sequence[int]) -> int:
        """Integer value of an LSB-first literal vector in the model."""
        result = 0
        for i, lit in enumerate(lits):
            if self.lit_value(lit):
                result |= 1 << i
        return result
