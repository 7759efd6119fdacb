"""Word-level to bit-level lowering (bit blasting).

A :class:`BitBlaster` maps every IR expression to a list of AIG literals,
least-significant bit first.  Variables allocate fresh AIG inputs on first
sight and are remembered, so blasting several expressions over the same
variables (the unrolled transition relation plus a property) shares
structure automatically through both the expression memo and the AIG's
structural hashing.  A variable can instead be *bound* to existing
literals before its first use (:meth:`BitBlaster.bind`); the timed
states of an unrolling are defined that way, which lets constants fold
through frame boundaries.  Unrolling happens here, not on expressions:
``blast(root, frame=t)`` lowers the *untimed* ``root`` with each variable
``v`` read as ``v@t``, so no timed copy of a design is ever built.

Lowering choices (ripple-carry adders, barrel shifters, shift-and-add
multipliers, MSB-first comparison chains) favour simplicity and small code
over minimal gate count.  What they cost the solver is decided one layer
down: every XOR, XNOR, multiplexer and full-adder sum written here goes
through ``AIG.xor_`` / ``mux`` and is three AND rows in the graph, and
under a plain Tseitin-of-ANDs encoding that was measured *not* adequate
for XOR trees (the ECC pipeline's syndrome logic: three variables, nine
clauses and a two-step implication chain per XOR, twice the propagations
of the direct encoding).  :mod:`repro.aig.cnf` therefore recognises the
three-row shape and encodes the XOR / ITE it came from, and encodes only
the cones a query asks for; keep building those gates through the
``AIG`` helpers so the shape stays recognisable.
"""

from __future__ import annotations

from typing import Container

from repro.errors import BitBlastError
from repro.aig.graph import AIG, FALSE, TRUE, negate
from repro.ir import expr as E


class BitBlaster:
    """Lowers expressions into a shared :class:`~repro.aig.graph.AIG`."""

    def __init__(self, aig: AIG | None = None):
        self.aig = aig if aig is not None else AIG()
        # One literal memo per frame; ``None`` is the untimed reading.
        self._memos: dict[int | None, dict[int, list[int]]] = {}
        self._var_bits: dict[str, list[int]] = {}
        # Post-order node tuple of every framed root, by ``id(root)``.
        # The tuple ends in the root and owns all its nodes, so neither
        # its key nor the ids in the frame memos can be recycled.
        self._orders: dict[int, tuple[E.Expr, ...]] = {}
        #: Names a framed blast may read; any other variable is an
        #: error.  ``None`` (a bare blaster) accepts every name.
        self.signals: Container[str] | None = None

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------

    def blast(self, root: E.Expr, frame: int | None = None) -> list[int]:
        """AIG literals for ``root``, LSB first (length == root.width).

        With ``frame=t`` every variable ``v`` of ``root`` stands for the
        timed variable ``v@t`` — the same key an untimed blast of
        ``E.var("v@t", w)`` reads, binds and width-checks.
        """
        memo = self._memos.setdefault(frame, {})
        found = memo.get(id(root))
        if found is None:
            if frame is None:
                nodes = E.iter_dag([root])
            else:
                nodes = self._orders.get(id(root))
                if nodes is None:
                    nodes = self._orders[id(root)] = tuple(
                        E.iter_dag([root]))
            for node in nodes:
                if id(node) not in memo:
                    memo[id(node)] = self._lower(node, memo, frame)
            found = memo[id(root)]
        return list(found)

    def blast_bool(self, root: E.Expr, frame: int | None = None) -> int:
        """Single literal for a width-1 expression."""
        if root.width != 1:
            raise BitBlastError(
                f"expected 1-bit expression, got width {root.width}")
        return self.blast(root, frame)[0]

    def var_bits(self, name: str) -> list[int] | None:
        """The literals standing for variable ``name`` (if seen): fresh
        inputs, or whatever :meth:`bind` defined it as."""
        bits = self._var_bits.get(name)
        return list(bits) if bits is not None else None

    def bind(self, name: str, bits: list[int]) -> None:
        """Define variable ``name`` as the literals ``bits`` (LSB first).

        Every later occurrence of the variable lowers to ``bits`` instead
        of fresh inputs, so logic over it is hashed and constant-folded
        together with the logic that produced ``bits``.  Only possible
        before the variable's first appearance in a blasted expression.
        """
        if name in self._var_bits:
            raise BitBlastError(
                f"variable {name!r} is already blasted; cannot bind it")
        self._var_bits[name] = list(bits)

    def known_vars(self) -> list[str]:
        return list(self._var_bits)

    # ------------------------------------------------------------------
    # Lowering
    # ------------------------------------------------------------------

    def _lower(self, node: E.Expr, memo: dict[int, list[int]],
               frame: int | None) -> list[int]:
        op = node.op
        g = self.aig
        if op == "const":
            return [TRUE if (node.value >> i) & 1 else FALSE
                    for i in range(node.width)]
        if op == "var":
            name = node.name
            if frame is not None:
                if self.signals is not None and name not in self.signals:
                    raise BitBlastError(
                        f"unknown signal {name!r}: neither an input nor "
                        "a state of the design being unrolled")
                name = E.timed_name(name, frame)
            bits = self._var_bits.get(name)
            if bits is None:
                bits = [g.new_input() for _ in range(node.width)]
                self._var_bits[name] = bits
            elif len(bits) != node.width:
                raise BitBlastError(
                    f"variable {name!r} blasted at two widths")
            return list(bits)

        args = [memo[id(a)] for a in node.args]
        if op == "not":
            return [negate(b) for b in args[0]]
        if op == "neg":
            return self._neg(args[0])
        if op == "and":
            return [g.and_(x, y) for x, y in zip(args[0], args[1])]
        if op == "or":
            return [g.or_(x, y) for x, y in zip(args[0], args[1])]
        if op == "xor":
            return [g.xor_(x, y) for x, y in zip(args[0], args[1])]
        if op == "add":
            return self._add(args[0], args[1], FALSE)
        if op == "sub":
            # a - b == a + ~b + 1
            return self._add(args[0], [negate(b) for b in args[1]], TRUE)
        if op == "mul":
            return self._mul(args[0], args[1])
        if op in ("shl", "lshr", "ashr"):
            return self._shift(op, args[0], args[1])
        if op == "eq":
            return [self.eq_lit(args[0], args[1])]
        if op == "ne":
            return [negate(self.eq_lit(args[0], args[1]))]
        if op == "ult":
            return [self._ult_lit(args[0], args[1])]
        if op == "ule":
            return [negate(self._ult_lit(args[1], args[0]))]
        if op == "slt":
            return [self._slt_lit(args[0], args[1])]
        if op == "sle":
            return [negate(self._slt_lit(args[1], args[0]))]
        if op == "ite":
            sel = args[0][0]
            return [g.mux(sel, t, e)
                    for t, e in zip(args[1], args[2])]
        if op == "concat":
            hi, lo = args[0], args[1]
            return list(lo) + list(hi)
        if op == "extract":
            hi_index, lo_index = node.params
            return args[0][lo_index:hi_index + 1]
        if op == "redand":
            return [g.and_many(args[0])]
        if op == "redor":
            return [g.or_many(args[0])]
        if op == "redxor":
            acc = FALSE
            for b in args[0]:
                acc = g.xor_(acc, b)
            return [acc]
        raise BitBlastError(f"cannot bit-blast operator {op!r}")

    # Arithmetic helpers --------------------------------------------------

    def _add(self, a: list[int], b: list[int], carry: int) -> list[int]:
        out = []
        for x, y in zip(a, b):
            s, carry = self.aig.full_adder(x, y, carry)
            out.append(s)
        return out

    def _neg(self, a: list[int]) -> list[int]:
        zero = [FALSE] * len(a)
        return self._add(zero, [negate(b) for b in a], TRUE)

    def _mul(self, a: list[int], b: list[int]) -> list[int]:
        width = len(a)
        acc = [FALSE] * width
        for i in range(width):
            partial = [FALSE] * i + [self.aig.and_(b[i], a[j])
                                     for j in range(width - i)]
            acc = self._add(acc, partial, FALSE)
        return acc

    def _shift(self, op: str, value: list[int],
               amount: list[int]) -> list[int]:
        width = len(value)
        fill = value[-1] if op == "ashr" else FALSE
        result = list(value)
        # Barrel shifter: stage i shifts by 2**i when amount bit i is set.
        for i, sel in enumerate(amount):
            step = 1 << i
            if step >= width:
                # Shifting by >= width zeroes (or sign-fills) everything.
                result = [self.aig.mux(sel, fill, r) for r in result]
                continue
            if op == "shl":
                shifted = [FALSE] * step + result[:width - step]
            else:
                shifted = result[step:] + [fill] * step
            result = [self.aig.mux(sel, s, r)
                      for s, r in zip(shifted, result)]
        return result

    # Comparison helpers --------------------------------------------------

    def eq_lit(self, a: list[int], b: list[int]) -> int:
        """Literal that is true iff the words ``a`` and ``b`` are equal."""
        return self.aig.and_many(self.aig.xnor_(x, y)
                                 for x, y in zip(a, b))

    def _ult_lit(self, a: list[int], b: list[int]) -> int:
        # MSB-first chain: lt = (!a & b) | ((a xnor b) & lt_below)
        lt = FALSE
        for x, y in zip(a, b):  # LSB to MSB; MSB dominates, so fold upward
            bit_lt = self.aig.and_(negate(x), y)
            bit_eq = self.aig.xnor_(x, y)
            lt = self.aig.or_(bit_lt, self.aig.and_(bit_eq, lt))
        return lt

    def _slt_lit(self, a: list[int], b: list[int]) -> int:
        # Signed compare == unsigned compare with MSBs flipped.
        a2 = list(a)
        b2 = list(b)
        a2[-1] = negate(a2[-1])
        b2[-1] = negate(b2[-1])
        return self._ult_lit(a2, b2)
