"""The one interpreter of ``hast.HdlExpr`` into ``E.Expr``.

RTL right-hand sides (``hdl/elaborate.py``) and SVA boolean-layer
expressions (``sva/compile.py``) are the same AST and are lowered here,
by one :class:`Lowerer`, so ``mem[1]``, ``q[9]``, ``{x, 1}`` and
``$clog2(N)`` mean one thing whichever side reads them.  A caller
supplies only what differs:

* ``signal(name, line)`` — how a name that is neither a parameter nor
  bound in the procedural ``env`` resolves;
* ``error(message, line)`` — builds the exception to raise: every
  rejection is the caller's error type with the source line, never an
  ``IRError`` / ``IndexError`` from deeper down;
* ``arrays`` — unpacked-array shapes ``name -> (elem_width, n_elems)``;
  an index on such a name reads the element, not a bit;
* ``params`` — elaboration-time constants (unsized numbers when read,
  the environment of :func:`const_eval`);
* ``calls`` / ``logical`` — system calls and 1-bit connectives beyond
  the shared ones (``$past`` … and ``->`` for properties).

Widths follow Verilog in the two-state unsigned model: an unsized
constant takes the width of the operand it meets (32 bits alone),
binary operands zero-extend to the wider one, conditions are ``!= 0``.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

from repro.hdl import ast
from repro.ir import expr as E

NATURAL_WIDTH = 32  # width of unsized decimal literals, as in Verilog


class Unsized:
    """An unsized constant awaiting a context width (-1: all ones)."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value


def sized(value) -> E.Expr:
    """An unsized constant that met no context takes the natural width."""
    if isinstance(value, Unsized):
        return E.const(value.value, NATURAL_WIDTH)
    return value


def to_bool(value) -> E.Expr:
    """Coerce to a 1-bit condition (Verilog truthiness: != 0)."""
    if isinstance(value, Unsized):
        return E.true() if value.value else E.false()
    return value if value.width == 1 else E.redor(value)


def resize(value, width: int) -> E.Expr:
    """Truncate or zero-extend to ``width`` (an assignment's context)."""
    if isinstance(value, Unsized):
        return E.const(value.value, width)
    if value.width == width:
        return value
    if value.width > width:
        return E.extract(value, width - 1, 0)
    return E.zext(value, width)


def unify(a, b) -> tuple[E.Expr, E.Expr]:
    """Bring two operands to a common width (Verilog max-extension)."""
    if isinstance(a, Unsized) and isinstance(b, Unsized):
        return sized(a), sized(b)
    if isinstance(a, Unsized):
        return E.const(a.value, b.width), b
    if isinstance(b, Unsized):
        return a, E.const(b.value, a.width)
    width = max(a.width, b.width)
    return resize(a, width), resize(b, width)


_UNARY: dict[str, Callable[[E.Expr], E.Expr]] = {
    "~": E.not_, "-": E.neg, "+": lambda x: x,
    "&": E.redand, "|": E.redor, "^": E.redxor,
    "~&": lambda x: E.not_(E.redand(x)),
    "~|": lambda x: E.not_(E.redor(x)),
    "~^": lambda x: E.not_(E.redxor(x)),
    "^~": lambda x: E.not_(E.redxor(x)),
}

_BINARY: dict[str, Callable[[E.Expr, E.Expr], E.Expr]] = {
    "+": E.add, "-": E.sub, "*": E.mul,
    "&": E.and_, "|": E.or_, "^": E.xor,
    "~^": lambda a, b: E.not_(E.xor(a, b)),
    "^~": lambda a, b: E.not_(E.xor(a, b)),
    "==": E.eq, "!=": E.ne, "===": E.eq, "!==": E.ne,
    "<": E.ult, "<=": E.ule, ">": E.ugt, ">=": E.uge,
}

_SHIFT = {"<<": E.shl, ">>": E.lshr, ">>>": E.ashr}

_LOGICAL = {"&&": E.and_, "||": E.or_}

#: One-argument system calls both doors know (two-state model: nothing
#: is ever unknown, and every value is unsigned).
_CALLS: dict[str, Callable[[E.Expr], E.Expr]] = {
    "$countones": E.countones, "$onehot": E.onehot, "$onehot0": E.onehot0,
    "$signed": lambda x: x, "$unsigned": lambda x: x,
    "$isunknown": lambda x: E.false(),
}

_CONST_UNARY: dict[str, Callable[[int], int]] = {
    "-": lambda v: -v, "+": lambda v: v,
    "!": lambda v: int(v == 0), "~": lambda v: ~v,
}

_CONST_BINARY: dict[str, Callable[[int, int], int]] = {
    "+": lambda a, b: a + b, "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a // b if b else 0,
    "%": lambda a, b: a % b if b else 0,
    "<<": lambda a, b: a << b, ">>": lambda a, b: a >> b,
    "&": lambda a, b: a & b, "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "==": lambda a, b: int(a == b), "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b), "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b), ">=": lambda a, b: int(a >= b),
    "&&": lambda a, b: int(bool(a) and bool(b)),
    "||": lambda a, b: int(bool(a) or bool(b)),
}


def const_eval(e: ast.HdlExpr, env: Mapping[str, int],
               error: Callable[[str, int], Exception]) -> int:
    """Evaluate an elaboration-time constant over the integers.

    ``env`` holds the parameters known so far; anything else (a signal,
    an operator with no integer meaning) is ``error``.
    """
    def ev(node: ast.HdlExpr) -> int:
        if isinstance(node, ast.Number):
            return node.value
        if isinstance(node, ast.Ident):
            if node.name in env:
                return env[node.name]
            raise error(f"{node.name!r} is not a constant", node.line)
        if isinstance(node, ast.Unary) and node.op in _CONST_UNARY:
            return _CONST_UNARY[node.op](ev(node.operand))
        if isinstance(node, ast.Binary) and node.op in _CONST_BINARY:
            return _CONST_BINARY[node.op](ev(node.left), ev(node.right))
        if isinstance(node, ast.Ternary):
            return ev(node.then) if ev(node.cond) else ev(node.other)
        if isinstance(node, ast.Call) and node.func == "$clog2":
            if len(node.args) != 1:
                raise error("$clog2 takes 1 argument, got "
                            f"{len(node.args)}", node.line)
            return max(0, (ev(node.args[0]) - 1).bit_length())
        raise error("expression is not elaboration-time constant "
                    f"({type(node).__name__})", node.line)
    return ev(e)


class Lowerer:
    """Lowers expressions for one caller; see the module docstring.

    ``lower`` may return :class:`Unsized` for a bare constant — the
    caller decides its width (``resize`` to an assignment target,
    ``sized`` where nothing else does); ``value`` / ``cond`` are the
    two common decisions.  ``env`` is the procedural environment of the
    enclosing process (blocking assignments seen so far), if any.
    """

    def __init__(self, signal: Callable[[str, int], E.Expr],
                 error: Callable[[str, int], Exception],
                 arrays: Mapping[str, tuple[int, int]],
                 params: Mapping[str, int] | None = None,
                 calls: Mapping[str, Callable] | None = None,
                 logical: Mapping[str, Callable] | None = None):
        self.signal = signal
        self.error = error
        self.arrays = arrays
        self.params = params or {}
        self.calls = calls or {}
        self.logical = {**_LOGICAL, **(logical or {})}

    def const(self, e: ast.HdlExpr) -> int:
        return const_eval(e, self.params, self.error)

    def value(self, e: ast.HdlExpr, env=None) -> E.Expr:
        return sized(self.lower(e, env))

    def cond(self, e: ast.HdlExpr, env=None) -> E.Expr:
        return to_bool(self.lower(e, env))

    def lower(self, e: ast.HdlExpr, env: Mapping[str, E.Expr] | None = None):
        method = getattr(self, f"_{type(e).__name__.lower()}", None)
        if method is None:
            raise self.error(
                f"unsupported expression {type(e).__name__}", e.line)
        return method(e, env)

    # -- leaves ----------------------------------------------------------

    def _number(self, e: ast.Number, env):
        if e.width is None:  # decimal, or a '0 / '1 fill (value 0 / -1)
            return Unsized(e.value)
        return E.const(e.value, e.width)

    def _ident(self, e: ast.Ident, env):
        if e.name in self.params:
            return Unsized(self.params[e.name])
        if env is not None and e.name in env:
            return env[e.name]
        return self.signal(e.name, e.line)

    # -- operators -------------------------------------------------------

    def _unary(self, e: ast.Unary, env):
        if e.op == "!":
            return E.not_(self.cond(e.operand, env))
        if e.op not in _UNARY:
            raise self.error(f"unsupported unary operator {e.op!r}", e.line)
        return _UNARY[e.op](self.value(e.operand, env))

    def _binary(self, e: ast.Binary, env):
        if e.op in self.logical:
            return self.logical[e.op](self.cond(e.left, env),
                                      self.cond(e.right, env))
        a = self.lower(e.left, env)
        b = self.lower(e.right, env)
        if e.op in _SHIFT:
            if isinstance(b, Unsized):
                b = E.const(b.value, max(1, b.value.bit_length()))
            return _SHIFT[e.op](sized(a), b)
        if e.op in _BINARY:
            return _BINARY[e.op](*unify(a, b))
        if e.op in ("/", "%"):
            raise self.error(
                "division/modulo on signals is not supported (constant "
                "folding only)", e.line)
        raise self.error(f"unsupported binary operator {e.op!r}", e.line)

    def _ternary(self, e: ast.Ternary, env):
        cond = self.cond(e.cond, env)
        return E.ite(cond, *unify(self.lower(e.then, env),
                                  self.lower(e.other, env)))

    # -- structure -------------------------------------------------------

    def _part(self, e: ast.HdlExpr, env, where: str, line: int) -> E.Expr:
        part = self.lower(e, env)
        if isinstance(part, Unsized):
            raise self.error(
                f"unsized constants are not allowed in {where}", line)
        return part

    def _concat(self, e: ast.Concat, env):
        return E.concat_many(self._part(p, env, "concatenations", e.line)
                             for p in e.parts)

    def _repl(self, e: ast.Repl, env):
        count = self.const(e.count)
        if count < 1:
            raise self.error(
                f"replication count must be >= 1, got {count}", e.line)
        return E.repeat(self._part(e.operand, env, "replications", e.line),
                        count)

    def _index(self, e: ast.Index, env):
        shape = self.arrays.get(e.base.name) \
            if isinstance(e.base, ast.Ident) else None
        if shape is not None:
            return self._array_read(e, shape, env)
        base = self.value(e.base, env)
        index = self.lower(e.index, env)
        if isinstance(index, Unsized):
            if not 0 <= index.value < base.width:
                raise self.error(
                    f"bit index {index.value} out of range (width "
                    f"{base.width})", e.line)
            return E.extract(base, index.value, index.value)
        return E.extract(E.lshr(base, resize(index, base.width)), 0, 0)

    def _array_read(self, e: ast.Index, shape: tuple[int, int], env):
        elem_width, n_elems = shape
        whole = self._ident(e.base, env)
        index = self.lower(e.index, env)
        if isinstance(index, Unsized):
            if not 0 <= index.value < n_elems:
                raise self.error(
                    f"array index {index.value} out of range for "
                    f"{e.base.name!r}", e.line)
            lsb = index.value * elem_width
            return E.extract(whole, lsb + elem_width - 1, lsb)
        width = max(index.width, whole.width)
        shift_amount = E.mul(E.zext(index, width),
                             E.const(elem_width, width))
        return E.extract(E.lshr(whole, shift_amount), elem_width - 1, 0)

    def _slice(self, e: ast.Slice, env):
        base = self.value(e.base, env)
        msb, lsb = self.const(e.msb), self.const(e.lsb)
        if not 0 <= lsb <= msb < base.width:
            raise self.error(
                f"part select [{msb}:{lsb}] out of range or reversed "
                f"(width {base.width})", e.line)
        return E.extract(base, msb, lsb)

    # -- system calls ----------------------------------------------------

    def arg(self, e: ast.Call, env, at_most: int = 1) -> E.Expr:
        """The call's first argument, lowered (arity-checked)."""
        if not 1 <= len(e.args) <= at_most:
            raise self.error(f"{e.func} takes 1 to {at_most} argument(s), "
                             f"got {len(e.args)}", e.line)
        return self.value(e.args[0], env)

    def _call(self, e: ast.Call, env):
        if e.func in self.calls:
            return self.calls[e.func](e, env)
        if e.func == "$clog2":
            return Unsized(self.const(e))
        if e.func in _CALLS:
            return _CALLS[e.func](self.arg(e, env))
        raise self.error(f"unsupported system call {e.func!r}", e.line)
