"""And-inverter graphs (AIGs) with structural hashing.

Literal encoding follows the AIGER convention: node ``i`` has the two
literals ``2*i`` (positive) and ``2*i + 1`` (negated); node 0 is the
constant false, so literal 0 is FALSE and literal 1 is TRUE.  Every
internal node is a two-input AND; inversion lives on the edges.

The graph grows append-only and node ids are topologically ordered
(fanins precede their AND), which the CNF layer exploits: a literal's
DIMACS image, once encoded, never changes, and a sorted cone is a valid
encoding order.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import BitBlastError

FALSE = 0
TRUE = 1


def negate(lit: int) -> int:
    """The complement literal."""
    return lit ^ 1


def is_negated(lit: int) -> bool:
    return bool(lit & 1)


def node_of(lit: int) -> int:
    return lit >> 1


class AIG:
    """Structurally hashed and-inverter graph."""

    def __init__(self) -> None:
        # _ands[i] is None for inputs / constant, else (lit_a, lit_b).
        self._ands: list[tuple[int, int] | None] = [None]  # node 0 = FALSE
        self._strash: dict[tuple[int, int], int] = {}
        self._num_inputs = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def new_input(self) -> int:
        """Fresh primary input; returns its positive literal."""
        self._ands.append(None)
        self._num_inputs += 1
        return (len(self._ands) - 1) << 1

    def and_(self, a: int, b: int) -> int:
        """AND of two literals, with constant/idempotence simplification."""
        if a > b:
            a, b = b, a
        # Ordered, so one range check covers both literals.
        if a < 0 or (b >> 1) >= len(self._ands):
            raise BitBlastError(
                f"literal {a if a < 0 else b} out of range")
        if a == FALSE or a ^ 1 == b:
            return FALSE
        if a == TRUE or a == b:
            return b
        key = (a, b)
        found = self._strash.get(key)
        if found is not None:
            return found
        self._ands.append(key)
        lit = (len(self._ands) - 1) << 1
        self._strash[key] = lit
        return lit

    # Derived gates -----------------------------------------------------

    def or_(self, a: int, b: int) -> int:
        return negate(self.and_(negate(a), negate(b)))

    def xor_(self, a: int, b: int) -> int:
        # a ^ b == !(a & b) & !(∼a & ∼b)
        return self.and_(negate(self.and_(a, b)),
                         negate(self.and_(negate(a), negate(b))))

    def xnor_(self, a: int, b: int) -> int:
        return negate(self.xor_(a, b))

    def mux(self, sel: int, then: int, other: int) -> int:
        """``then`` if ``sel`` else ``other``."""
        return self.or_(self.and_(sel, then),
                        self.and_(negate(sel), other))

    def and_many(self, lits: Iterable[int]) -> int:
        result = TRUE
        for lit in lits:
            result = self.and_(result, lit)
        return result

    def or_many(self, lits: Iterable[int]) -> int:
        result = FALSE
        for lit in lits:
            result = self.or_(result, lit)
        return result

    def implies(self, a: int, b: int) -> int:
        return self.or_(negate(a), b)

    def full_adder(self, a: int, b: int, cin: int) -> tuple[int, int]:
        """Returns ``(sum, carry_out)``."""
        ab = self.xor_(a, b)
        s = self.xor_(ab, cin)
        carry = self.or_(self.and_(a, b), self.and_(ab, cin))
        return s, carry

    # ------------------------------------------------------------------
    # Inspection / evaluation
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._ands)

    @property
    def num_ands(self) -> int:
        return len(self._strash)

    @property
    def num_inputs(self) -> int:
        return self._num_inputs

    def is_and(self, node: int) -> bool:
        return self._ands[node] is not None

    def fanins(self, node: int) -> tuple[int, int]:
        pair = self._ands[node]
        if pair is None:
            raise BitBlastError(f"node {node} is not an AND node")
        return pair

    def row(self, node: int) -> tuple[int, int] | None:
        """The fanin pair of ``node``, or None for an input / node 0."""
        return self._ands[node]

    def nodes_from(self, start: int) -> Iterable[tuple[int, int, int]]:
        """Yield ``(node, fanin_a, fanin_b)`` for AND nodes >= ``start``."""
        for node in range(max(start, 1), len(self._ands)):
            pair = self._ands[node]
            if pair is not None:
                yield node, pair[0], pair[1]

    def evaluate(self, input_values: Sequence[bool],
                 roots: Sequence[int]) -> list[bool]:
        """Evaluate root literals under an assignment to the inputs.

        ``input_values`` are in input-creation order.  Used by the test
        suite to cross-check the bit-blaster against the word-level
        evaluator.
        """
        values = [False] * len(self._ands)
        input_index = 0
        for node in range(1, len(self._ands)):
            pair = self._ands[node]
            if pair is None:
                values[node] = bool(input_values[input_index])
                input_index += 1
            else:
                a, b = pair
                va = values[node_of(a)] ^ is_negated(a)
                vb = values[node_of(b)] ^ is_negated(b)
                values[node] = va and vb
        out = []
        for lit in roots:
            out.append(values[node_of(lit)] ^ is_negated(lit))
        return out
