"""Unit + property tests for the expression IR."""

import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.errors import IRError
from repro.ir import expr as E
from repro.utils.bits import mask, to_signed

SRC = Path(__file__).resolve().parents[1] / "src"


class TestInterning:
    def test_same_structure_same_object(self):
        a1 = E.add(E.var("x", 8), E.const(1, 8))
        a2 = E.add(E.var("x", 8), E.const(1, 8))
        assert a1 is a2

    def test_different_width_different_object(self):
        assert E.var("x", 8) is not E.var("x", 9)

    def test_const_wraps(self):
        assert E.const(256, 8).value == 0
        assert E.const(-1, 8).value == 255


class TestWidthChecking:
    def test_mismatched_add(self):
        with pytest.raises(IRError):
            E.add(E.var("a", 8), E.var("b", 4))

    def test_ite_needs_bool_condition(self):
        with pytest.raises(IRError):
            E.ite(E.var("c", 2), E.var("a", 4), E.var("b", 4))

    def test_extract_bounds(self):
        with pytest.raises(IRError):
            E.extract(E.var("a", 8), 8, 0)
        with pytest.raises(IRError):
            E.extract(E.var("a", 8), 3, 5)

    def test_zero_width_rejected(self):
        with pytest.raises(IRError):
            E.var("x", 0)
        with pytest.raises(IRError):
            E.const(0, 0)


class TestConstantFolding:
    def test_arith(self):
        assert E.add(E.const(200, 8), E.const(100, 8)).value == 44
        assert E.sub(E.const(1, 8), E.const(2, 8)).value == 255
        assert E.mul(E.const(16, 8), E.const(17, 8)).value == (16 * 17) % 256

    def test_identities(self):
        x = E.var("x", 8)
        assert E.add(x, E.const(0, 8)) is x
        assert E.and_(x, E.const(0xFF, 8)) is x
        assert E.and_(x, E.const(0, 8)).value == 0
        assert E.or_(x, E.const(0, 8)) is x
        assert E.xor(x, x).value == 0
        assert E.not_(E.not_(x)) is x
        assert E.sub(x, x).value == 0

    def test_comparison_reflexivity(self):
        x = E.var("x", 8)
        assert E.eq(x, x).value == 1
        assert E.ult(x, x).value == 0
        assert E.ule(x, x).value == 1

    def test_ite_folds(self):
        a, b = E.var("a", 4), E.var("b", 4)
        assert E.ite(E.true(), a, b) is a
        assert E.ite(E.false(), a, b) is b
        assert E.ite(E.var("c", 1), a, a) is a

    def test_ite_bool_identity(self):
        c = E.var("c", 1)
        assert E.ite(c, E.true(), E.false()) is c
        assert E.ite(c, E.false(), E.true()) is E.not_(c)

    def test_extract_of_concat_spanning(self):
        hi = E.var("h", 8)
        lo = E.var("l", 8)
        spanning = E.extract(E.concat(hi, lo), 11, 4)
        env = {"h": 0xAB, "l": 0xCD}
        assert E.evaluate(spanning, env) == ((0xAB << 8 | 0xCD) >> 4) & 0xFF

    def test_nested_extract_collapse(self):
        x = E.var("x", 16)
        e = E.extract(E.extract(x, 11, 4), 5, 2)
        assert e.op == "extract" and e.args[0] is x
        assert e.params == (9, 6)


class TestEvaluation:
    @given(st.integers(0, 255), st.integers(0, 255))
    def test_binary_semantics(self, a, b):
        env = {"a": a, "b": b}
        va, vb = E.var("a", 8), E.var("b", 8)
        assert E.evaluate(E.add(va, vb), env) == (a + b) & 0xFF
        assert E.evaluate(E.sub(va, vb), env) == (a - b) & 0xFF
        assert E.evaluate(E.mul(va, vb), env) == (a * b) & 0xFF
        assert E.evaluate(E.and_(va, vb), env) == a & b
        assert E.evaluate(E.xor(va, vb), env) == a ^ b
        assert E.evaluate(E.eq(va, vb), env) == int(a == b)
        assert E.evaluate(E.ult(va, vb), env) == int(a < b)
        assert E.evaluate(E.slt(va, vb), env) == \
            int(to_signed(a, 8) < to_signed(b, 8))

    @given(st.integers(0, 255), st.integers(0, 15))
    def test_shift_semantics(self, a, sh):
        env = {"a": a, "s": sh}
        va, vs = E.var("a", 8), E.var("s", 4)
        assert E.evaluate(E.shl(va, vs), env) == \
            ((a << sh) & 0xFF if sh < 8 else 0)
        assert E.evaluate(E.lshr(va, vs), env) == (a >> sh if sh < 8 else 0)
        expected_ashr = to_signed(a, 8) >> min(sh, 7) & 0xFF
        assert E.evaluate(E.ashr(va, vs), env) == expected_ashr

    @given(st.integers(0, 2**12 - 1))
    def test_reductions(self, a):
        env = {"a": a}
        va = E.var("a", 12)
        assert E.evaluate(E.redand(va), env) == int(a == mask(12))
        assert E.evaluate(E.redor(va), env) == int(a != 0)
        assert E.evaluate(E.redxor(va), env) == bin(a).count("1") % 2
        assert E.evaluate(E.countones(va), env) == bin(a).count("1")
        assert E.evaluate(E.onehot(va), env) == \
            int(bin(a).count("1") == 1)
        assert E.evaluate(E.onehot0(va), env) == \
            int(bin(a).count("1") <= 1)

    def test_missing_variable(self):
        with pytest.raises(IRError):
            E.evaluate(E.var("ghost", 4), {})

    @given(st.integers(0, 255))
    def test_extension_semantics(self, a):
        env = {"a": a}
        va = E.var("a", 8)
        assert E.evaluate(E.zext(va, 16), env) == a
        assert E.evaluate(E.sext(va, 16), env) == \
            to_signed(a, 8) & 0xFFFF
        assert E.evaluate(E.repeat(va, 2), env) == (a << 8) | a


class TestSubstitution:
    def test_basic(self):
        x, y = E.var("x", 8), E.var("y", 8)
        e = E.add(x, E.mul(y, E.const(2, 8)))
        sub = E.substitute(e, {"x": E.const(3, 8), "y": E.const(5, 8)})
        assert sub.is_const and sub.value == 13

    def test_width_mismatch_rejected(self):
        with pytest.raises(IRError):
            E.substitute(E.var("x", 8), {"x": E.var("y", 4)})

    def test_no_change_returns_same(self):
        e = E.add(E.var("x", 8), E.var("y", 8))
        assert E.substitute(e, {"z": E.const(0, 8)}) is e

    def test_dag_sharing_preserved(self):
        x = E.var("x", 8)
        shared = E.add(x, E.const(1, 8))
        e = E.mul(shared, shared)
        out = E.substitute(e, {"x": E.var("w", 8)})
        assert out.args[0] is out.args[1]


class TestSupportAndTraversal:
    def test_support(self):
        e = E.add(E.var("a", 4), E.ite(E.var("c", 1), E.var("b", 4),
                                       E.const(0, 4)))
        assert E.support(e) == {"a", "b", "c"}

    def test_support_is_memoised_per_root(self):
        e = E.sub(E.var("p", 4), E.var("q", 4))
        first = E.support(e)
        assert isinstance(first, frozenset)
        assert E.support(e) is first

    def test_iter_dag_postorder(self):
        e = E.add(E.var("a", 4), E.var("b", 4))
        nodes = list(E.iter_dag([e]))
        assert nodes[-1] is e
        assert len(nodes) == 3

    def test_iter_dag_no_duplicates(self):
        x = E.var("x", 4)
        e = E.add(x, x)
        nodes = list(E.iter_dag([e]))
        assert len(nodes) == 2

    def test_deep_dag_no_recursion_error(self):
        e = E.var("x", 8)
        for _ in range(5000):
            e = E.add(e, E.const(1, 8))
        assert E.evaluate(e, {"x": 0}) == 5000 % 256


def reference_evaluate(root: E.Expr, env: dict[str, int]) -> int:
    """Tree-walking evaluator straight from the semantics table in the
    ``repro.ir.expr`` docstring: the reference the kernel is held to.
    Recursive and unmemoised on purpose; only for small test DAGs."""
    op, w = root.op, root.width
    if op == "const":
        return root.value
    if op == "var":
        return env[root.name] & mask(w)
    vals = [reference_evaluate(arg, env) for arg in root.args]
    a = vals[0]
    aw = root.args[0].width
    if op == "ite":
        return vals[1] if a else vals[2]
    if op == "extract":
        hi, lo = root.params
        return sum(((a >> i) & 1) << (i - lo) for i in range(lo, hi + 1))
    if op in ("redand", "redor", "redxor"):
        bits = [(a >> i) & 1 for i in range(aw)]
        return {"redand": int(all(bits)), "redor": int(any(bits)),
                "redxor": sum(bits) % 2}[op]
    if op == "not":
        return mask(w) - a
    if op == "neg":
        return (2 ** w - a) % 2 ** w
    b = vals[1]
    if op in ("slt", "sle"):
        sa, sb = to_signed(a, aw), to_signed(b, aw)
        return int(sa < sb if op == "slt" else sa <= sb)
    if op == "ashr":
        return (to_signed(a, w) // 2 ** min(b, w)) % 2 ** w
    if op == "concat":
        return a * 2 ** root.args[1].width + b
    return {"and": a & b, "or": a | b, "xor": a ^ b,
            "add": (a + b) % 2 ** w, "sub": (a - b) % 2 ** w,
            "mul": (a * b) % 2 ** w,
            "shl": (a * 2 ** b) % 2 ** w if b < w else 0,
            "lshr": a // 2 ** b if b < w else 0,
            "eq": int(a == b), "ne": int(a != b),
            "ult": int(a < b), "ule": int(a <= b)}[op]


def random_dag(rng: random.Random, width: int, size: int
               ) -> tuple[list[E.Expr], dict[str, int]]:
    """``size`` operator nodes over a small pool (heavy sharing) at one
    base ``width``, every operator of the table reachable, plus an
    environment for the variables."""
    names = ["p", "q", "r"]
    words = [E.var(n, width) for n in names]
    words.append(E.const(rng.getrandbits(width), width))
    bools = [E.var("flag", 1)]
    env = {n: rng.getrandbits(width) for n in names}
    env["flag"] = rng.getrandbits(1)
    binary = [E.and_, E.or_, E.xor, E.add, E.sub, E.mul, E.shl, E.lshr,
              E.ashr]
    compare = [E.eq, E.ne, E.ult, E.ule, E.slt, E.sle]
    for _ in range(size):
        a, b = rng.choice(words), rng.choice(words)
        kind = rng.randrange(6)
        if kind == 0:
            words.append(rng.choice(binary)(a, b))
        elif kind == 1:
            words.append(rng.choice([E.not_, E.neg])(a))
        elif kind == 2:
            bools.append(rng.choice(compare)(a, b))
        elif kind == 3:
            bools.append(rng.choice([E.redand, E.redor, E.redxor])(a))
        elif kind == 4:
            words.append(E.ite(rng.choice(bools), a, b))
        else:
            # concat then extract back to the base width, at a random
            # offset, so both appear without the widths drifting.
            lo = rng.randrange(width + 1)
            words.append(E.extract(E.concat(a, b), lo + width - 1, lo))
    return words[4:] + bools[1:], env


class TestKernel:
    @pytest.mark.parametrize("width", [1, 2, 3, 7, 8, 16, 31, 32, 33, 64])
    def test_agrees_with_reference_on_random_dags(self, width):
        rng = random.Random(width)
        seen_ops = set()
        for _ in range(30):
            roots, env = random_dag(rng, width, 25)
            roots = [r for r in roots if not r.is_const]
            expected = [reference_evaluate(r, env) for r in roots]
            assert E.evaluate_many(roots, env) == expected
            assert [E.evaluate(r, env) for r in roots] == expected
            seen_ops |= {n.op for n in E.iter_dag(roots)}
        if width >= 7:
            assert seen_ops == E._OPS

    @pytest.mark.parametrize("width", [1, 5, 64])
    def test_shift_amounts_at_and_beyond_the_width(self, width):
        a, n = E.var("a", width), E.var("n", width.bit_length() + 1)
        shifts = [E.shl(a, n), E.lshr(a, n), E.ashr(a, n)]
        for value in (0, 1, mask(width), 1 << (width - 1)):
            for amount in (0, 1, width - 1, width, width + 1, mask(n.width)):
                env = {"a": value, "n": amount}
                assert E.evaluate_many(shifts, env) == \
                    [reference_evaluate(s, env) for s in shifts]

    def test_shared_subdag_is_one_slot(self):
        x, y = E.var("x", 8), E.var("y", 8)
        shared = E.mul(E.add(x, y), E.add(x, y))
        roots = [E.eq(shared, E.const(9, 8)), E.ult(shared, y), shared]
        prog = E.program(roots)
        assert len(prog) == len(list(E.iter_dag(roots))) == 7
        env = {"x": 200, "y": 59}
        assert prog.run(env) == [E.evaluate(r, env) for r in roots] \
            == [1, 1, 9]
        assert E.program(tuple(roots)) is prog

    def test_missing_variable_is_named(self):
        e = E.add(E.var("here", 4), E.var("ghost", 4))
        with pytest.raises(IRError, match="'ghost'"):
            E.evaluate(e, {"here": 1})
        with pytest.raises(IRError, match="'ghost'"):
            E.evaluate_many([e, E.var("here", 4)], {"here": 1})

    def test_env_values_wrap_to_the_variable_width(self):
        x = E.var("x", 4)
        assert E.evaluate(x, {"x": 0x1F}) == 0xF
        assert E.evaluate(E.add(x, E.const(1, 4)), {"x": -1}) == 0
        assert E.evaluate(E.ult(x, E.const(3, 4)), {"x": 16}) == 1

    def test_unknown_operator_rejected(self):
        with pytest.raises(IRError, match="bogus"):
            E.evaluate(E._mk("bogus", 4, (E.var("x", 4),)), {"x": 0})

    def test_clearing_the_intern_table_drops_programs(self):
        # In a child interpreter: clearing the table under a running
        # test session would break identity for every live expression.
        script = (
            "from repro.ir import expr as E\n"
            "e = lambda: E.sub(E.var('x', 8), E.const(1, 8))\n"
            "assert E.evaluate(e(), {'x': 0}) == 255\n"
            "assert E._PROGRAMS\n"
            "E.clear_intern_table()\n"
            "assert not E._PROGRAMS\n"
            "assert E.evaluate(e(), {'x': 3}) == 2\n"
            "assert len(E._PROGRAMS) == 1\n")
        subprocess.run([sys.executable, "-c", script],
                       env={"PYTHONPATH": str(SRC)}, check=True)


    def test_clearing_the_intern_table_drops_supports(self):
        script = (
            "from repro.ir import expr as E\n"
            "e = lambda: E.add(E.var('a', 8), E.var('b', 8))\n"
            "assert E.support(e()) == {'a', 'b'}\n"
            "assert E._SUPPORTS\n"
            "E.clear_intern_table()\n"
            "assert not E._SUPPORTS\n"
            "assert E.support(e()) == {'a', 'b'}\n"
            "assert len(E._SUPPORTS) == 1\n")
        subprocess.run([sys.executable, "-c", script],
                       env={"PYTHONPATH": str(SRC)}, check=True)


class TestStructuralSignature:
    def test_symmetric_counters_match(self):
        c1 = E.add(E.var("count1", 8), E.const(1, 8))
        c2 = E.add(E.var("count2", 8), E.const(1, 8))
        sig1 = E.structural_signature(c1, {"count1": "§"})
        sig2 = E.structural_signature(c2, {"count2": "§"})
        assert sig1 == sig2

    def test_different_structure_differs(self):
        c1 = E.add(E.var("a", 8), E.const(1, 8))
        c2 = E.sub(E.var("b", 8), E.const(1, 8))
        assert E.structural_signature(c1, {"a": "§"}) != \
            E.structural_signature(c2, {"b": "§"})

    def test_shared_other_variables_must_match(self):
        en = E.var("en", 1)
        c1 = E.ite(en, E.add(E.var("a", 8), E.const(1, 8)), E.var("a", 8))
        c2 = E.ite(en, E.add(E.var("b", 8), E.const(1, 8)), E.var("b", 8))
        assert E.structural_signature(c1, {"a": "§"}) == \
            E.structural_signature(c2, {"b": "§"})


class TestPrinting:
    def test_sexpr_mentions_vars(self):
        e = E.add(E.var("alpha", 8), E.const(1, 8))
        text = E.to_sexpr(e)
        assert "alpha" in text and "add" in text

    def test_repr_truncates(self):
        e = E.var("x", 8)
        for _ in range(10):
            e = E.add(e, e)
        assert "..." in repr(e)
