"""Tseitin transformation from AIGs to CNF.

:class:`CnfBuilder` tracks how much of a (monotonically growing) AIG it has
already encoded, so the model checker can keep blasting new unrolled frames
into the same AIG and only pay clauses for the delta.  DIMACS variable 1 is
reserved as the constant-true variable, pinned by a unit clause; this keeps
constant literals uniform instead of special-casing them in every clause.

Every AIG node maps to a *signed* DIMACS literal, not to a variable of its
own: the solver's fused gate call (``add_and_gate``) answers with an
existing literal when a fanin is already decided at level 0 — the false
fanin itself, or the other fanin when one is true — and only an open gate
gets a fresh variable and its three clauses.  Several nodes may therefore
share a literal, in either polarity.
"""

from __future__ import annotations

from typing import Sequence

from repro.aig.graph import AIG
from repro.sat.solver import Solver


class CnfBuilder:
    """Maintains the AIG-to-DIMACS mapping and feeds a SAT solver."""

    def __init__(self, aig: AIG, solver: Solver):
        self.aig = aig
        self.solver = solver
        const_true = solver.add_var()
        solver.add_clause([const_true])  # var 1 is TRUE
        # Signed DIMACS literal per encoded AIG node; its length is the
        # first node without one.  Node 0 is the constant FALSE.
        self._node_var: list[int] = [-const_true]

    # ------------------------------------------------------------------

    def lit_to_dimacs(self, lit: int) -> int:
        """DIMACS literal for an AIG literal (encodes as needed)."""
        self.encode_new_nodes()
        d = self._node_var[lit >> 1]
        return -d if lit & 1 else d

    def encode_new_nodes(self) -> None:
        """Give every node added since the last call its DIMACS literal:
        a fresh variable per input, the solver's gate literal per AND."""
        node_var = self._node_var
        rows = self.aig.rows_from(len(node_var))
        if not rows:
            return
        add_var = self.solver.add_var
        add_and_gate = self.solver.add_and_gate
        for row in rows:
            if row is None:
                # Primary input: allocated eagerly so model extraction
                # can see it even if no clause mentions it.
                node_var.append(add_var())
                continue
            a, b = row
            da = node_var[a >> 1]
            db = node_var[b >> 1]
            node_var.append(add_and_gate(-da if a & 1 else da,
                                         -db if b & 1 else db))

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

        A node not encoded yet (created after the last solve) reads as
        an unconstrained input: False.
        """
        node = lit >> 1
        if node >= len(self._node_var):
            return bool(lit & 1)
        d = self._node_var[node]
        value = self.solver.model_value(abs(d)) ^ (d < 0)
        return value ^ bool(lit & 1)

    def bits_value(self, lits: Sequence[int]) -> int:
        """Integer value of an LSB-first literal vector in the model."""
        result = 0
        for i, lit in enumerate(lits):
            if self.lit_value(lit):
                result |= 1 << i
        return result
