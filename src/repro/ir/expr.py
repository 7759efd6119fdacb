"""Hash-consed fixed-width bit-vector expressions.

Expressions are immutable and interned: structurally identical expressions
are the *same object*, so equality is identity and DAG traversals can memoize
on ``id()``.  Construction goes through the factory functions in this module,
which perform width checking and light constant folding.

Semantics
---------
Every expression has a ``width`` (>= 1); a value is a Python int in
``[0, 2**width)``.  Booleans are width-1 vectors.  The operator semantics are:

``const``            literal value.
``var``              free variable, read from the evaluation environment.
``not``              bitwise complement.
``neg``              two's-complement negation (mod 2**w).
``and/or/xor``       bitwise, both operands the same width.
``add/sub/mul``      modulo 2**w, both operands the same width.
``shl/lshr/ashr``    shift by an unsigned amount (its own width); amounts
                     >= w give 0 (or all-sign for ``ashr``).
``eq/ne/ult/ule/slt/sle``  comparisons producing a width-1 result; ``s``
                     variants compare two's-complement.
``ite``              width-1 condition selecting between same-width branches.
``concat``           ``concat(hi, lo)`` places ``hi`` in the most-significant
                     bits; width is the sum.
``extract``          bit slice ``[hi:lo]`` (inclusive), width ``hi-lo+1``.
``redand/redor/redxor``  reductions producing width-1.

``zext``/``sext``/``repeat``/``countones`` and the remaining comparisons are
derived forms built from the primitives above by their factory functions.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterable, Iterator, Mapping

from repro.errors import IRError
from repro.utils.bits import mask, popcount, to_signed, to_unsigned

# Primitive operator tags.  Derived operations (zext, sge, countones, ...)
# are expanded into these at construction time.
_NULLARY = ("const", "var")
_UNARY = ("not", "neg", "redand", "redor", "redxor")
_BINARY = ("and", "or", "xor", "add", "sub", "mul", "shl", "lshr", "ashr",
           "eq", "ne", "ult", "ule", "slt", "sle", "concat")
_COMPARISONS = ("eq", "ne", "ult", "ule", "slt", "sle")

_OPS = frozenset(_NULLARY + _UNARY + _BINARY + ("ite", "extract"))


class Expr:
    """A node in the hash-consed expression DAG.

    Do not instantiate directly; use the factory functions (:func:`var`,
    :func:`const`, :func:`add`, ...).  Instances are interned, so ``a is b``
    iff ``a`` and ``b`` are structurally identical.
    """

    __slots__ = ("op", "width", "args", "name", "value", "params", "_hash")

    def __init__(self, op: str, width: int, args: tuple["Expr", ...],
                 name: str | None, value: int | None,
                 params: tuple[int, ...]):
        self.op = op
        self.width = width
        self.args = args
        self.name = name
        self.value = value
        self.params = params
        self._hash = hash((op, width, tuple(id(a) for a in args), name,
                           value, params))

    def __hash__(self) -> int:
        return self._hash

    # Interning makes the default identity-based __eq__ correct.

    def __reduce__(self):
        # Unpickle through the interning constructor so deserialized
        # expressions land in the receiving process's intern table:
        # identity-based equality and the `a is b` folding rules stay
        # valid after a trip through a multiprocessing worker.
        return (_mk, (self.op, self.width, self.args, self.name,
                      self.value, self.params))

    def __repr__(self) -> str:
        return f"Expr({to_sexpr(self, max_depth=3)})"

    @property
    def is_const(self) -> bool:
        return self.op == "const"

    @property
    def is_var(self) -> bool:
        return self.op == "var"


_INTERN: dict[tuple, Expr] = {}

#: node -> :func:`structural_digest`, filled lazily.  Keyed by the node
#: itself (identity hash, and the reference keeps its ``id`` from being
#: recycled), so an entry is valid for as long as it exists.
_DIGESTS: dict[Expr, bytes] = {}

#: tuple of roots -> its evaluation :class:`Program`, keyed like
#: ``_DIGESTS`` by the interned nodes themselves.
_PROGRAMS: dict[tuple[Expr, ...], "Program"] = {}

#: root -> :func:`support`, keyed like ``_DIGESTS`` by the interned node
#: itself, so every query over one design walks each root's DAG once.
_SUPPORTS: dict[Expr, frozenset[str]] = {}


def _mk(op: str, width: int, args: tuple[Expr, ...] = (),
        name: str | None = None, value: int | None = None,
        params: tuple[int, ...] = ()) -> Expr:
    key = (op, width, tuple(id(a) for a in args), name, value, params)
    found = _INTERN.get(key)
    if found is not None:
        return found
    node = Expr(op, width, args, name, value, params)
    _INTERN[key] = node
    return node


def intern_table_size() -> int:
    """Number of live interned expressions (useful for leak diagnostics)."""
    return len(_INTERN)


def clear_intern_table() -> None:
    """Drop the intern table (and the digest, program and support memos
    hanging off it).

    Only safe when no expressions from before the call will be compared
    against expressions created after it; intended for long test sessions.
    """
    _INTERN.clear()
    _DIGESTS.clear()
    _PROGRAMS.clear()
    _SUPPORTS.clear()


# ---------------------------------------------------------------------------
# Nullary factories
# ---------------------------------------------------------------------------

def const(value: int, width: int) -> Expr:
    """A ``width``-bit literal; ``value`` is wrapped into range."""
    if width < 1:
        raise IRError(f"const width must be >= 1, got {width}")
    return _mk("const", width, value=to_unsigned(value, width))


def var(name: str, width: int) -> Expr:
    """A free ``width``-bit variable identified by ``name``."""
    if width < 1:
        raise IRError(f"var width must be >= 1, got {width} for {name!r}")
    if not name:
        raise IRError("var name must be non-empty")
    return _mk("var", width, name=name)


def true() -> Expr:
    return const(1, 1)


def false() -> Expr:
    return const(0, 1)


# Timed copies of a variable are plain variables with mangled names; the
# unroller builds them and the bit-blaster's framed reading keys on them.
SEPARATOR = "@"


def timed_name(name: str, t: int) -> str:
    """Name of the time-``t`` copy of variable ``name``."""
    return f"{name}{SEPARATOR}{t}"


def untimed_name(name: str) -> tuple[str, int]:
    base, _, t = name.rpartition(SEPARATOR)
    return base, int(t)


# ---------------------------------------------------------------------------
# Width checking helpers
# ---------------------------------------------------------------------------

def _require_same_width(op: str, a: Expr, b: Expr) -> None:
    if a.width != b.width:
        raise IRError(f"{op}: operand widths differ ({a.width} vs {b.width})")


def _require_bool(op: str, e: Expr) -> None:
    if e.width != 1:
        raise IRError(f"{op}: expected a 1-bit operand, got width {e.width}")


# ---------------------------------------------------------------------------
# Bitwise operators
# ---------------------------------------------------------------------------

def not_(a: Expr) -> Expr:
    if a.is_const:
        return const(~a.value, a.width)
    if a.op == "not":  # double negation
        return a.args[0]
    return _mk("not", a.width, (a,))


def and_(a: Expr, b: Expr) -> Expr:
    _require_same_width("and", a, b)
    if a.is_const and b.is_const:
        return const(a.value & b.value, a.width)
    for x, y in ((a, b), (b, a)):
        if x.is_const:
            if x.value == 0:
                return const(0, a.width)
            if x.value == mask(a.width):
                return y
    if a is b:
        return a
    return _mk("and", a.width, (a, b))


def or_(a: Expr, b: Expr) -> Expr:
    _require_same_width("or", a, b)
    if a.is_const and b.is_const:
        return const(a.value | b.value, a.width)
    for x, y in ((a, b), (b, a)):
        if x.is_const:
            if x.value == 0:
                return y
            if x.value == mask(a.width):
                return const(mask(a.width), a.width)
    if a is b:
        return a
    return _mk("or", a.width, (a, b))


def xor(a: Expr, b: Expr) -> Expr:
    _require_same_width("xor", a, b)
    if a.is_const and b.is_const:
        return const(a.value ^ b.value, a.width)
    for x, y in ((a, b), (b, a)):
        if x.is_const:
            if x.value == 0:
                return y
            if x.value == mask(a.width):
                return not_(y)
    if a is b:
        return const(0, a.width)
    return _mk("xor", a.width, (a, b))


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------

def add(a: Expr, b: Expr) -> Expr:
    _require_same_width("add", a, b)
    if a.is_const and b.is_const:
        return const(a.value + b.value, a.width)
    for x, y in ((a, b), (b, a)):
        if x.is_const and x.value == 0:
            return y
    return _mk("add", a.width, (a, b))


def sub(a: Expr, b: Expr) -> Expr:
    _require_same_width("sub", a, b)
    if a.is_const and b.is_const:
        return const(a.value - b.value, a.width)
    if b.is_const and b.value == 0:
        return a
    if a is b:
        return const(0, a.width)
    return _mk("sub", a.width, (a, b))


def neg(a: Expr) -> Expr:
    if a.is_const:
        return const(-a.value, a.width)
    return _mk("neg", a.width, (a,))


def mul(a: Expr, b: Expr) -> Expr:
    _require_same_width("mul", a, b)
    if a.is_const and b.is_const:
        return const(a.value * b.value, a.width)
    for x, y in ((a, b), (b, a)):
        if x.is_const:
            if x.value == 0:
                return const(0, a.width)
            if x.value == 1:
                return y
    return _mk("mul", a.width, (a, b))


# ---------------------------------------------------------------------------
# Shifts
# ---------------------------------------------------------------------------

def _shift(op: str, a: Expr, amount: Expr) -> Expr:
    if a.is_const and amount.is_const:
        n = amount.value
        if op == "shl":
            return const(a.value << n if n < a.width else 0, a.width)
        if op == "lshr":
            return const(a.value >> n if n < a.width else 0, a.width)
        signed = to_signed(a.value, a.width)
        return const(signed >> min(n, a.width - 1), a.width)
    if amount.is_const and amount.value == 0:
        return a
    return _mk(op, a.width, (a, amount))


def shl(a: Expr, amount: Expr) -> Expr:
    """Logical shift left; result keeps ``a``'s width."""
    return _shift("shl", a, amount)


def lshr(a: Expr, amount: Expr) -> Expr:
    """Logical shift right."""
    return _shift("lshr", a, amount)


def ashr(a: Expr, amount: Expr) -> Expr:
    """Arithmetic (sign-filling) shift right."""
    return _shift("ashr", a, amount)


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------

def _cmp(op: str, a: Expr, b: Expr, fn: Callable[[int, int], bool]) -> Expr:
    _require_same_width(op, a, b)
    if a.is_const and b.is_const:
        return const(int(fn(a.value, b.value)), 1)
    if a is b:
        reflexive = {"eq": 1, "ne": 0, "ult": 0, "ule": 1, "slt": 0, "sle": 1}
        return const(reflexive[op], 1)
    return _mk(op, 1, (a, b))


def eq(a: Expr, b: Expr) -> Expr:
    return _cmp("eq", a, b, lambda x, y: x == y)


def ne(a: Expr, b: Expr) -> Expr:
    return _cmp("ne", a, b, lambda x, y: x != y)


def ult(a: Expr, b: Expr) -> Expr:
    return _cmp("ult", a, b, lambda x, y: x < y)


def ule(a: Expr, b: Expr) -> Expr:
    return _cmp("ule", a, b, lambda x, y: x <= y)


def ugt(a: Expr, b: Expr) -> Expr:
    return ult(b, a)


def uge(a: Expr, b: Expr) -> Expr:
    return ule(b, a)


def slt(a: Expr, b: Expr) -> Expr:
    w = a.width
    return _cmp("slt", a, b,
                lambda x, y: to_signed(x, w) < to_signed(y, w))


def sle(a: Expr, b: Expr) -> Expr:
    w = a.width
    return _cmp("sle", a, b,
                lambda x, y: to_signed(x, w) <= to_signed(y, w))


def sgt(a: Expr, b: Expr) -> Expr:
    return slt(b, a)


def sge(a: Expr, b: Expr) -> Expr:
    return sle(b, a)


# ---------------------------------------------------------------------------
# Structure: ite / concat / extract and derived resizers
# ---------------------------------------------------------------------------

def ite(cond: Expr, then: Expr, other: Expr) -> Expr:
    _require_bool("ite", cond)
    _require_same_width("ite", then, other)
    if cond.is_const:
        return then if cond.value else other
    if then is other:
        return then
    if then.width == 1 and then.is_const and other.is_const:
        # ite(c, 1, 0) == c ; ite(c, 0, 1) == !c
        if then.value == 1 and other.value == 0:
            return cond
        if then.value == 0 and other.value == 1:
            return not_(cond)
    return _mk("ite", then.width, (cond, then, other))


def concat(hi: Expr, lo: Expr) -> Expr:
    """Concatenate; ``hi`` becomes the most-significant part."""
    if hi.is_const and lo.is_const:
        return const((hi.value << lo.width) | lo.value, hi.width + lo.width)
    return _mk("concat", hi.width + lo.width, (hi, lo))


def concat_many(parts: Iterable[Expr]) -> Expr:
    """Concatenate left-to-right, leftmost part most significant."""
    items = list(parts)
    if not items:
        raise IRError("concat_many requires at least one part")
    result = items[0]
    for part in items[1:]:
        result = concat(result, part)
    return result


def extract(a: Expr, hi: int, lo: int) -> Expr:
    """Bits ``[hi:lo]`` of ``a``, both bounds inclusive."""
    if not (0 <= lo <= hi < a.width):
        raise IRError(f"extract [{hi}:{lo}] out of range for width {a.width}")
    if lo == 0 and hi == a.width - 1:
        return a
    if a.is_const:
        return const((a.value >> lo) & mask(hi - lo + 1), hi - lo + 1)
    if a.op == "extract":  # collapse nested extracts
        inner_lo = a.params[1]
        return extract(a.args[0], inner_lo + hi, inner_lo + lo)
    if a.op == "concat":
        hi_part, lo_part = a.args
        if hi < lo_part.width:
            return extract(lo_part, hi, lo)
        if lo >= lo_part.width:
            return extract(hi_part, hi - lo_part.width, lo - lo_part.width)
        # Range spans both parts: split and recombine (enables constant
        # folding of read-modify-write splice chains).
        return concat(extract(hi_part, hi - lo_part.width, 0),
                      extract(lo_part, lo_part.width - 1, lo))
    return _mk("extract", hi - lo + 1, (a,), params=(hi, lo))


def bit(a: Expr, index: int) -> Expr:
    """Single-bit select ``a[index]``."""
    return extract(a, index, index)


def zext(a: Expr, width: int) -> Expr:
    """Zero-extend ``a`` to ``width`` bits (no-op if equal)."""
    if width < a.width:
        raise IRError(f"zext to {width} narrower than operand ({a.width})")
    if width == a.width:
        return a
    return concat(const(0, width - a.width), a)


def sext(a: Expr, width: int) -> Expr:
    """Sign-extend ``a`` to ``width`` bits."""
    if width < a.width:
        raise IRError(f"sext to {width} narrower than operand ({a.width})")
    if width == a.width:
        return a
    sign = extract(a, a.width - 1, a.width - 1)
    return concat(repeat(sign, width - a.width), a)


def resize(a: Expr, width: int, signed: bool = False) -> Expr:
    """Truncate or extend to ``width`` (Verilog assignment semantics)."""
    if width == a.width:
        return a
    if width < a.width:
        return extract(a, width - 1, 0)
    return sext(a, width) if signed else zext(a, width)


def repeat(a: Expr, times: int) -> Expr:
    """Replication ``{times{a}}``."""
    if times < 1:
        raise IRError(f"repeat count must be >= 1, got {times}")
    result = a
    for _ in range(times - 1):
        result = concat(result, a)
    return result


# ---------------------------------------------------------------------------
# Reductions and derived counting
# ---------------------------------------------------------------------------

def redand(a: Expr) -> Expr:
    if a.is_const:
        return const(int(a.value == mask(a.width)), 1)
    if a.width == 1:
        return a
    return _mk("redand", 1, (a,))


def redor(a: Expr) -> Expr:
    if a.is_const:
        return const(int(a.value != 0), 1)
    if a.width == 1:
        return a
    return _mk("redor", 1, (a,))


def redxor(a: Expr) -> Expr:
    if a.is_const:
        return const(popcount(a.value) & 1, 1)
    if a.width == 1:
        return a
    return _mk("redxor", 1, (a,))


def countones(a: Expr) -> Expr:
    """Population count as an adder tree; result width fits ``a.width``."""
    out_width = max(1, a.width.bit_length())
    terms = [zext(bit(a, i), out_width) for i in range(a.width)]
    while len(terms) > 1:
        merged = []
        for i in range(0, len(terms) - 1, 2):
            merged.append(add(terms[i], terms[i + 1]))
        if len(terms) % 2:
            merged.append(terms[-1])
        terms = merged
    return terms[0]


def onehot(a: Expr) -> Expr:
    """Exactly one bit set ($onehot)."""
    return eq(countones(a), const(1, countones(a).width))


def onehot0(a: Expr) -> Expr:
    """At most one bit set ($onehot0)."""
    return ule(countones(a), const(1, countones(a).width))


# ---------------------------------------------------------------------------
# Boolean (width-1) conveniences
# ---------------------------------------------------------------------------

def bool_not(a: Expr) -> Expr:
    _require_bool("bool_not", a)
    return not_(a)


def bool_and(*operands: Expr) -> Expr:
    result = true()
    for e in operands:
        _require_bool("bool_and", e)
        result = and_(result, e)
    return result


def bool_or(*operands: Expr) -> Expr:
    result = false()
    for e in operands:
        _require_bool("bool_or", e)
        result = or_(result, e)
    return result


def bool_implies(a: Expr, b: Expr) -> Expr:
    _require_bool("bool_implies", a)
    _require_bool("bool_implies", b)
    return or_(not_(a), b)


def bool_iff(a: Expr, b: Expr) -> Expr:
    _require_bool("bool_iff", a)
    _require_bool("bool_iff", b)
    return eq(a, b)


# ---------------------------------------------------------------------------
# Traversal, evaluation, substitution
# ---------------------------------------------------------------------------

def iter_dag(roots: Iterable[Expr]) -> Iterator[Expr]:
    """Post-order iteration over the DAG reachable from ``roots``.

    Children are always yielded before parents; each node exactly once.
    Iterative (explicit stack) so deep unrollings do not hit the recursion
    limit.
    """
    seen: set[int] = set()
    stack: list[tuple[Expr, bool]] = [(r, False) for r in reversed(list(roots))]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            yield node
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for child in reversed(node.args):
            if id(child) not in seen:
                stack.append((child, False))


def support(root: Expr) -> frozenset[str]:
    """Names of all variables appearing under ``root``.

    Memoised per interned root (the DAG under a node never changes), so
    the cone-of-influence fixpoint and :meth:`TransitionSystem.validate`
    walk each root once however many properties ask.
    """
    found = _SUPPORTS.get(root)
    if found is None:
        found = _SUPPORTS[root] = frozenset(
            n.name for n in iter_dag([root]) if n.is_var)
    return found


#: op -> factory(node, *argument slots) -> step(slot values) -> value: the
#: concrete semantics of every operator with arguments.  Widths, masks and
#: slots are bound when a :class:`Program` is built; ``s`` is the sign bit
#: (``x ^ s`` orders two's-complement values as unsigned ones, and
#: ``(x ^ s) - s`` is the signed reading of ``x``).
_KERNELS: dict[str, Callable[..., Callable[[list[int]], int]]] = {
    "not": lambda n, a: lambda v, m=mask(n.width): ~v[a] & m,
    "neg": lambda n, a: lambda v, m=mask(n.width): -v[a] & m,
    "redand": lambda n, a: lambda v, full=mask(n.args[0].width):
        1 if v[a] == full else 0,
    "redor": lambda n, a: lambda v: 1 if v[a] else 0,
    "redxor": lambda n, a: lambda v: v[a].bit_count() & 1,
    "extract": lambda n, a: lambda v, lo=n.params[1], m=mask(n.width):
        (v[a] >> lo) & m,
    "ite": lambda n, c, a, b: lambda v: v[a] if v[c] else v[b],
    "and": lambda n, a, b: lambda v: v[a] & v[b],
    "or": lambda n, a, b: lambda v: v[a] | v[b],
    "xor": lambda n, a, b: lambda v: v[a] ^ v[b],
    "add": lambda n, a, b: lambda v, m=mask(n.width): (v[a] + v[b]) & m,
    "sub": lambda n, a, b: lambda v, m=mask(n.width): (v[a] - v[b]) & m,
    "mul": lambda n, a, b: lambda v, m=mask(n.width): (v[a] * v[b]) & m,
    "shl": lambda n, a, b: lambda v, w=n.width, m=mask(n.width):
        (v[a] << v[b]) & m if v[b] < w else 0,
    "lshr": lambda n, a, b: lambda v, w=n.width:
        v[a] >> v[b] if v[b] < w else 0,
    "ashr": lambda n, a, b: lambda v, top=n.width - 1, m=mask(n.width),
        s=1 << n.width - 1: (((v[a] ^ s) - s) >> min(v[b], top)) & m,
    "eq": lambda n, a, b: lambda v: 1 if v[a] == v[b] else 0,
    "ne": lambda n, a, b: lambda v: 1 if v[a] != v[b] else 0,
    "ult": lambda n, a, b: lambda v: 1 if v[a] < v[b] else 0,
    "ule": lambda n, a, b: lambda v: 1 if v[a] <= v[b] else 0,
    "slt": lambda n, a, b: lambda v, s=1 << n.args[0].width - 1:
        1 if v[a] ^ s < v[b] ^ s else 0,
    "sle": lambda n, a, b: lambda v, s=1 << n.args[0].width - 1:
        1 if v[a] ^ s <= v[b] ^ s else 0,
    "concat": lambda n, a, b: lambda v, shift=n.args[1].width:
        (v[a] << shift) | v[b],
}


class Program:
    """Straight-line evaluator of a fixed tuple of roots.

    The shared DAG under the roots is flattened once, children before
    parents, into slots: variables first, then constants, then one bound
    step per operator node.  ``len(program)`` is the number of distinct
    nodes; running it is a flat loop over the steps.
    """

    __slots__ = ("_vars", "_consts", "_steps", "_outs")

    def __init__(self, roots: tuple[Expr, ...]):
        nodes = list(iter_dag(roots))
        variables = [n for n in nodes if n.op == "var"]
        consts = [n for n in nodes if n.op == "const"]
        slot = {id(n): i for i, n in enumerate(variables + consts)}
        self._vars = [(n.name, mask(n.width)) for n in variables]
        self._consts = [n.value for n in consts]
        self._steps = []
        for n in nodes:
            if id(n) in slot:
                continue
            factory = _KERNELS.get(n.op)
            if factory is None:
                raise IRError(f"evaluate: unknown operator {n.op!r}")
            self._steps.append(factory(n, *(slot[id(a)] for a in n.args)))
            slot[id(n)] = len(slot)
        self._outs = [slot[id(r)] for r in roots]

    def __len__(self) -> int:
        return len(self._vars) + len(self._consts) + len(self._steps)

    def run(self, env: Mapping[str, int]) -> list[int]:
        """Values of the roots under ``env`` (variable name -> int, wrapped
        into the variable's width)."""
        try:
            v = [env[name] & m for name, m in self._vars]
        except KeyError as missing:
            raise IRError("evaluate: no value for variable "
                          f"{missing.args[0]!r}") from None
        v += self._consts
        push = v.append
        for step in self._steps:
            push(step(v))
        return [v[i] for i in self._outs]


def program(roots: Iterable[Expr]) -> Program:
    """The :class:`Program` for ``roots``, built once per distinct tuple."""
    key = tuple(roots)
    found = _PROGRAMS.get(key)
    if found is None:
        found = _PROGRAMS[key] = Program(key)
    return found


def evaluate(root: Expr, env: Mapping[str, int]) -> int:
    """Evaluate ``root`` under ``env`` (variable name -> int value)."""
    return program((root,)).run(env)[0]


def evaluate_many(roots: list[Expr], env: Mapping[str, int]) -> list[int]:
    """Evaluate several roots, each shared sub-expression once."""
    return program(roots).run(env)


def substitute(root: Expr, mapping: Mapping[str, Expr],
               _memo: dict[int, Expr] | None = None) -> Expr:
    """Replace variables by expressions (capture is the caller's concern).

    ``mapping`` sends variable *names* to replacement expressions, which must
    have the same width as the variable they replace.
    """
    memo: dict[int, Expr] = {} if _memo is None else _memo
    for node in iter_dag([root]):
        if id(node) in memo:
            continue
        if node.is_var:
            replacement = mapping.get(node.name)
            if replacement is None:
                memo[id(node)] = node
            else:
                if replacement.width != node.width:
                    raise IRError(
                        f"substitute: width mismatch for {node.name!r} "
                        f"({node.width} -> {replacement.width})")
                memo[id(node)] = replacement
        elif not node.args:
            memo[id(node)] = node
        else:
            new_args = tuple(memo[id(a)] for a in node.args)
            if all(x is y for x, y in zip(new_args, node.args)):
                memo[id(node)] = node
            else:
                memo[id(node)] = rebuild(node, new_args)
    return memo[id(root)]


_BUILDERS: dict[str, Callable[..., Expr]] = {
    "not": not_, "neg": neg, "redand": redand, "redor": redor,
    "redxor": redxor, "and": and_, "or": or_, "xor": xor, "add": add,
    "sub": sub, "mul": mul, "shl": shl, "lshr": lshr, "ashr": ashr,
    "eq": eq, "ne": ne, "ult": ult, "ule": ule, "slt": slt, "sle": sle,
    "concat": concat, "ite": ite,
}


def rebuild(node: Expr, args: tuple[Expr, ...]) -> Expr:
    """Rebuild ``node`` with new arguments, re-running folding rules."""
    op = node.op
    if op == "extract":
        return extract(args[0], node.params[0], node.params[1])
    builder = _BUILDERS.get(op)
    if builder is None:
        raise IRError(f"rebuild: unknown operator {op!r}")
    return builder(*args)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def to_sexpr(root: Expr, max_depth: int | None = None) -> str:
    """Render as an s-expression (for debugging and structural comparison)."""

    def render(node: Expr, depth: int) -> str:
        if max_depth is not None and depth > max_depth:
            return "..."
        if node.op == "const":
            return f"#b{node.value:0{node.width}b}" if node.width <= 8 \
                else f"(const {node.value} {node.width})"
        if node.op == "var":
            return node.name
        if node.op == "extract":
            hi, lo = node.params
            return f"(extract[{hi}:{lo}] {render(node.args[0], depth + 1)})"
        inner = " ".join(render(a, depth + 1) for a in node.args)
        return f"({node.op} {inner})"

    return render(root, 0)


def structural_signature(root: Expr, var_renaming: Mapping[str, str]) -> str:
    """S-expression with variables renamed through ``var_renaming``.

    Two expressions are structurally equal modulo renaming iff their
    signatures under the corresponding renamings coincide.  Used by the
    candidate miner to spot symmetric registers (e.g. the
    paper's ``count1``/``count2``).
    """
    memo: dict[int, str] = {}
    for node in iter_dag([root]):
        if node.is_var:
            memo[id(node)] = f"v:{var_renaming.get(node.name, node.name)}"
        elif node.is_const:
            memo[id(node)] = f"c:{node.value}:{node.width}"
        else:
            inner = ",".join(memo[id(a)] for a in node.args)
            memo[id(node)] = f"({node.op}:{node.params}:{inner})"
    return memo[id(root)]


def structural_digest(root: Expr) -> bytes:
    """Merkle digest of the DAG under ``root``: SHA-256 over the node's
    own fields and the *digests* of its arguments.

    Carries what :func:`structural_signature` carries (op, params,
    const value and width, variable name, argument order) in 32 bytes a
    node instead of a tree-expanded string, and is memoised per
    interned node — a shared sub-DAG is hashed once per process however
    many roots reach it.  Equal across processes for equal structure.
    """
    found = _DIGESTS.get(root)
    if found is not None:
        return found
    stack = [root]
    while stack:
        node = stack[-1]
        if node in _DIGESTS:
            stack.pop()
            continue
        missing = [a for a in node.args if a not in _DIGESTS]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        h = hashlib.sha256(repr((node.op, node.width, node.params,
                                 node.name, node.value)).encode())
        for arg in node.args:
            h.update(_DIGESTS[arg])
        _DIGESTS[node] = h.digest()
    return _DIGESTS[root]
