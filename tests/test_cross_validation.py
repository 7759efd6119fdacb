"""Cross-layer validation: the properties that hold the stack together.

These tests check *agreements between independent implementations* of the
same semantics — the strongest evidence a from-scratch verification stack
can offer about itself:

* RTL expressions: elaborator + evaluator vs a direct Python model;
* CNF layer: Tseitin encoding is equisatisfiable with direct evaluation;
* model checker vs simulator: every BMC counterexample replays
  concretely; every induction-step CEX transition is a real transition;
* SVA implication semantics vs a reference monitor interpreter.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.aig.bitblast import BitBlaster
from repro.aig.cnf import CnfBuilder
from repro.aig.graph import AIG
from repro.designs.registry import design_names, get_design
from repro.errors import BitBlastError, SatError
from repro.hdl.elaborate import elaborate
from repro.ir import expr as E
from repro.ir.system import TransitionSystem
from repro.mc.bmc import bmc
from repro.mc.kinduction import KInductionOptions, k_induction
from repro.mc.property import SafetyProperty
from repro.mc.result import Status
from repro.mc.unroll import Unroller
from repro.qa.generate import random_design
from repro.sat.solver import Solver
from repro.sim.simulator import Simulator
from repro.sva.compile import MonitorContext
from repro.utils.bits import mask


# ---------------------------------------------------------------------------
# RTL expression semantics fuzz: random Verilog expressions, evaluated by
# (1) elaborator -> IR -> evaluator and (2) a direct Python interpreter.
# ---------------------------------------------------------------------------

_BINOPS = [
    ("+", lambda a, b, w: (a + b) & mask(w)),
    ("-", lambda a, b, w: (a - b) & mask(w)),
    ("*", lambda a, b, w: (a * b) & mask(w)),
    ("&", lambda a, b, w: a & b),
    ("|", lambda a, b, w: a | b),
    ("^", lambda a, b, w: a ^ b),
    ("==", lambda a, b, w: int(a == b)),
    ("!=", lambda a, b, w: int(a != b)),
    ("<", lambda a, b, w: int(a < b)),
    (">=", lambda a, b, w: int(a >= b)),
]


def _random_rtl_expr(rng, depth):
    """Returns (expr_text, python_fn(a8, b8, c8) -> value, width)."""
    if depth == 0 or rng.random() < 0.3:
        choice = rng.randrange(4)
        if choice == 0:
            value = rng.randrange(256)
            return f"8'h{value:02x}", (lambda a, b, c, v=value: v), 8
        name = "abc"[choice - 1]
        index = choice - 1
        return name, (lambda a, b, c, i=index: (a, b, c)[i]), 8
    kind = rng.randrange(5)
    if kind == 0:  # binary
        op, fn = _BINOPS[rng.randrange(len(_BINOPS))]
        lt, lf, lw = _random_rtl_expr(rng, depth - 1)
        rt, rf, rw = _random_rtl_expr(rng, depth - 1)
        width = 1 if op in ("==", "!=", "<", ">=") else max(lw, rw)

        def run(a, b, c, lf=lf, rf=rf, fn=fn, lw=lw, rw=rw, w=max(lw, rw)):
            return fn(lf(a, b, c) & mask(w), rf(a, b, c) & mask(w), w)

        return f"({lt} {op} {rt})", run, width
    if kind == 1:  # unary reduction / complement
        op = rng.choice(["~", "&", "|", "^"])
        it, fi, iw = _random_rtl_expr(rng, depth - 1)
        if op == "~":
            return (f"(~{it})",
                    lambda a, b, c, fi=fi, iw=iw: (~fi(a, b, c)) & mask(iw),
                    iw)
        table = {
            "&": lambda v, w: int(v == mask(w)),
            "|": lambda v, w: int(v != 0),
            "^": lambda v, w: bin(v).count("1") & 1,
        }
        return (f"({op}{it})",
                lambda a, b, c, fi=fi, iw=iw, f=table[op]: f(fi(a, b, c),
                                                             iw), 1)
    if kind == 2:  # ternary
        ct, cf, _ = _random_rtl_expr(rng, depth - 1)
        lt, lf, lw = _random_rtl_expr(rng, depth - 1)
        rt, rf, rw = _random_rtl_expr(rng, depth - 1)
        width = max(lw, rw)

        def run(a, b, c, cf=cf, lf=lf, rf=rf, w=width):
            return (lf(a, b, c) if cf(a, b, c) else rf(a, b, c)) & mask(w)

        return f"({ct} ? {lt} : {rt})", run, width
    if kind == 3:  # slice of a
        hi = rng.randrange(1, 8)
        lo = rng.randrange(0, hi + 1)
        return (f"a[{hi}:{lo}]",
                lambda a, b, c, hi=hi, lo=lo: (a >> lo) & mask(hi - lo + 1),
                hi - lo + 1)
    # concat
    lt, lf, lw = _random_rtl_expr(rng, depth - 1)
    rt, rf, rw = _random_rtl_expr(rng, depth - 1)

    def run(a, b, c, lf=lf, rf=rf, lw=lw, rw=rw):
        return ((lf(a, b, c) & mask(lw)) << rw) | (rf(a, b, c) & mask(rw))

    return "{" + lt + ", " + rt + "}", run, lw + rw


class TestRtlExpressionFuzz:
    def test_elaborated_expressions_match_python(self):
        rng = random.Random(1234)
        for trial in range(40):
            text, py_fn, width = _random_rtl_expr(rng, 3)
            if width < 1:
                continue
            rtl = f"""
                module fuzz (input [7:0] a, b, c,
                             output [{max(width, 1) - 1}:0] y);
                  assign y = {text};
                endmodule
            """
            system = elaborate(rtl)
            resolved = system.resolve_defines(system.lookup("y"))
            for _ in range(6):
                env = {"a": rng.randrange(256), "b": rng.randrange(256),
                       "c": rng.randrange(256)}
                got = E.evaluate(resolved, env)
                want = py_fn(env["a"], env["b"], env["c"]) & mask(width)
                assert got == want, (trial, text, env, got, want)

    def test_elaborated_expressions_match_bitblast(self):
        rng = random.Random(77)
        for trial in range(15):
            text, _py, width = _random_rtl_expr(rng, 3)
            rtl = f"""
                module fuzz (input [7:0] a, b, c,
                             output [{max(width, 1) - 1}:0] y);
                  assign y = {text};
                endmodule
            """
            system = elaborate(rtl)
            resolved = system.resolve_defines(system.lookup("y"))
            bb = BitBlaster()
            lits = bb.blast(resolved)
            for _ in range(4):
                env = {"a": rng.randrange(256), "b": rng.randrange(256),
                       "c": rng.randrange(256)}
                flat = []
                for name in bb.known_vars():
                    bits = bb.var_bits(name)
                    flat.extend(bool((env[name] >> i) & 1)
                                for i in range(len(bits)))
                got_bits = bb.aig.evaluate(flat, lits)
                got = sum(1 << i for i, bit in enumerate(got_bits) if bit)
                assert got == E.evaluate(resolved, env)


# ---------------------------------------------------------------------------
# CNF equisatisfiability
# ---------------------------------------------------------------------------

class TestCnfEquisatisfiability:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_models_satisfy_expression(self, seed):
        """SAT models of the CNF evaluate the source expression to true."""
        rng = random.Random(seed)
        x = E.var("x", 6)
        y = E.var("y", 6)
        k1 = E.const(rng.randrange(64), 6)
        k2 = E.const(rng.randrange(64), 6)
        exprs = [
            E.eq(E.add(x, y), k1),
            E.and_(E.ult(x, k1), E.ugt(E.add(x, k2), y)),
            E.eq(E.xor(x, y), k2),
        ]
        expr = exprs[rng.randrange(len(exprs))]
        bb = BitBlaster()
        solver = Solver()
        cnf = CnfBuilder(bb.aig, solver)
        lit = bb.blast_bool(expr)
        cnf.assert_lit(lit)
        sat = solver.solve()
        if sat:
            env = {"x": cnf.bits_value(bb.var_bits("x")),
                   "y": cnf.bits_value(bb.var_bits("y"))}
            assert E.evaluate(expr, env) == 1
        else:
            # Cross-check UNSAT by exhaustive enumeration.
            assert all(E.evaluate(expr, {"x": xv, "y": yv}) == 0
                       for xv in range(64) for yv in range(64))

    def test_unsat_expression(self):
        x = E.var("x", 8)
        contradiction = E.and_(E.ult(x, E.const(4, 8)),
                               E.ugt(x, E.const(9, 8)))
        bb = BitBlaster()
        solver = Solver()
        cnf = CnfBuilder(bb.aig, solver)
        cnf.assert_lit(bb.blast_bool(contradiction))
        assert solver.solve() is False


# ---------------------------------------------------------------------------
# Fused, level-0-folding gate encoder vs a naive Tseitin reference
# ---------------------------------------------------------------------------

class _NaiveEncoder:
    """The textbook encoding: one variable per node, three generic
    clauses per AND, nothing folded, nothing shared."""

    def __init__(self, aig: AIG, solver: Solver):
        self.aig = aig
        self.solver = solver
        self.var = {0: solver.add_var()}
        solver.add_clause([-self.var[0]])  # node 0 is FALSE

    def dimacs(self, lit: int) -> int:
        return -self.var[lit >> 1] if lit & 1 else self.var[lit >> 1]

    def encode_new_nodes(self) -> None:
        for node in range(len(self.var), self.aig.num_nodes):
            v = self.var[node] = self.solver.add_var()
            if self.aig.is_and(node):
                a, b = (self.dimacs(f) for f in self.aig.fanins(node))
                self.solver.add_clause([-v, a])
                self.solver.add_clause([-v, b])
                self.solver.add_clause([v, -a, -b])


def _grow(rng: random.Random, aig: AIG, pool: list[int]) -> None:
    """A few new inputs and gates over ``pool`` (all literals so far)."""
    for _ in range(rng.randint(0, 2)):
        pool.append(aig.new_input())
    for _ in range(rng.randint(1, 8)):
        a, b, c = (rng.choice(pool) ^ rng.getrandbits(1) for _ in range(3))
        gate = rng.choice([aig.and_, aig.or_, aig.xor_, aig.mux])
        pool.append(gate(a, b, c) if gate == aig.mux else gate(a, b))


def _grow_shapes(rng: random.Random, aig: AIG, pool: list[int]) -> None:
    """One more gate over ``pool``, in the shapes the bit-blaster writes;
    now and then also a bare AND that *is* an inner row of an XOR built
    before or after it, so shapes share their inner nodes."""
    a, b, c = (rng.choice(pool) ^ rng.getrandbits(1) for _ in range(3))
    kind = rng.randrange(6)
    if kind == 0:
        pool.append(aig.and_(a, b))
    elif kind == 1:
        pool.append(aig.xor_(a, b))
    elif kind == 2:
        pool.append(aig.mux(a, b, c))
    elif kind == 3:
        pool.extend(aig.full_adder(a, b, c))
    elif kind == 4:
        pool.append(aig.and_(a, b))
        pool.append(aig.xor_(a, b))
    else:
        pool.append(aig.xnor_(a, b))
        pool.append(aig.and_(a ^ 1, b ^ 1))


class TestEncoderDifferential:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_fused_encoder_agrees_with_naive_reference(self, seed):
        """Same verdict under any assumptions, and every model read back
        through ``lit_value`` is the AIG's own evaluation."""
        rng = random.Random(seed)
        aig = AIG()
        fused = CnfBuilder(aig, Solver())
        naive = _NaiveEncoder(aig, Solver())
        pool = [0, aig.new_input(), aig.new_input()]
        units = []
        for _ in range(rng.randint(2, 6)):
            _grow(rng, aig, pool)
            fused.encode_new_nodes(*pool)    # everything so far
            naive.encode_new_nodes()
            # Unit assertions between encode passes are what later
            # gates fold against.
            for _ in range(rng.randint(0, 2)):
                unit = rng.choice(pool) ^ rng.getrandbits(1)
                units.append(unit)
                fused.assert_lit(unit)
                naive.solver.add_clause([naive.dimacs(unit)])
        _grow(rng, aig, pool)
        fused.lit_to_dimacs(pool[-1])  # encodes the tail on demand
        naive.encode_new_nodes()
        # Folding only ever saves variables; an open gate costs three
        # stored clauses, a folded one none.
        assert fused.solver.num_vars() <= naive.solver.num_vars()
        every_lit = [lit for node in range(aig.num_nodes)
                     for lit in (2 * node, 2 * node + 1)]
        for _ in range(4):
            assumed = [rng.choice(pool) ^ rng.getrandbits(1)
                       for _ in range(rng.randint(0, 3))]
            got = fused.solver.solve([fused.assumption(lit)
                                      for lit in assumed])
            want = naive.solver.solve([naive.dimacs(lit)
                                       for lit in assumed])
            assert got == want
            if not got:
                continue
            inputs = [fused.lit_value(2 * node)
                      for node in range(1, aig.num_nodes)
                      if not aig.is_and(node)]
            assert [fused.lit_value(lit) for lit in every_lit] == \
                aig.evaluate(inputs, every_lit)
            assert all(fused.lit_value(lit) for lit in units + assumed)

    def test_level0_facts_fold_gates_away(self):
        aig = AIG()
        x, y, z = aig.new_input(), aig.new_input(), aig.new_input()
        cnf = CnfBuilder(aig, Solver())
        cnf.assert_lit(x)
        cnf.assert_lit(y ^ 1)
        vars_before = cnf.solver.num_vars()
        stored_before = cnf.solver.stats.clauses_added
        alias = aig.and_(x, z)            # x true: the gate *is* z
        negated_alias = aig.and_(x, z ^ 1)
        const = aig.and_(y, z)            # y false: the gate is false
        open_gate = aig.and_(z, aig.new_input())
        assert cnf.lit_to_dimacs(alias) == cnf.lit_to_dimacs(z)
        assert cnf.lit_to_dimacs(negated_alias) == -cnf.lit_to_dimacs(z)
        assert cnf.lit_to_dimacs(const) == cnf.lit_to_dimacs(y)
        # The three folded gates cost one variable between them (z, the
        # input they were asked over) and no clause; nobody has asked
        # for the open gate yet, so it has cost nothing.
        assert cnf.solver.num_vars() == vars_before + 1
        assert cnf.solver.stats.clauses_added == stored_before
        assert cnf.solver.solve([cnf.assumption(open_gate)]) is True
        # Asked for: its other input, its own variable, three clauses.
        assert cnf.solver.num_vars() == vars_before + 3
        assert cnf.solver.stats.clauses_added == stored_before + 3
        assert cnf.lit_value(alias) is True
        assert cnf.lit_value(negated_alias) is False
        assert cnf.lit_value(negated_alias ^ 1) is True
        assert cnf.lit_value(const) is False
        assert cnf.solver.solve([cnf.assumption(const)]) is False

    def test_gate_call_keeps_add_clause_preconditions(self):
        solver = Solver()
        a, b = solver.add_var(), solver.add_var()
        with pytest.raises(SatError):
            solver.add_and_gate(a, 0)
        with pytest.raises(SatError):
            solver.add_and_gate(a, b + 1)
        assert solver.add_and_gate(a, a) == a
        contradiction = solver.add_and_gate(a, -a)
        assert solver.solve([contradiction]) is False
        assert solver.solve([a, b]) is True
        # Mid-search (a decision level is open) the call must refuse:
        # a fold there would bake a retractable assignment in.
        solver._trail_lim.append(len(solver._trail))
        with pytest.raises(SatError):
            solver.add_and_gate(a, b)
        solver._cancel_until(0)
        solver.add_clause([a])
        solver.add_clause([-a])
        assert solver.solve() is False
        assert solver.add_and_gate(a, b) in (a, b)  # dead formula: no-op

    @pytest.mark.parametrize("seed", range(300))
    def test_demand_driven_encoder_agrees_with_naive_reference(self, seed):
        """Only requested cones are encoded, in XOR / ITE shapes where
        the AIG has them: same verdicts as one-variable-per-node Tseitin
        under any assumptions, and every node — encoded or not — reads
        back from the model as the AIG's own evaluation."""
        rng = random.Random(seed)
        aig = AIG()
        pool = [aig.new_input() for _ in range(rng.randint(2, 5))]
        for _ in range(rng.randint(4, 20)):
            _grow_shapes(rng, aig, pool)
        demand = CnfBuilder(aig, Solver())
        naive = _NaiveEncoder(aig, Solver())
        naive.encode_new_nodes()
        units = [rng.choice(pool) ^ rng.getrandbits(1)
                 for _ in range(rng.randint(0, 2))]
        for unit in units:
            demand.assert_lit(unit)
            naive.solver.add_clause([naive.dimacs(unit)])
        for _ in range(2):      # the AIG keeps growing between queries
            _grow_shapes(rng, aig, pool)
        naive.encode_new_nodes()
        every_lit = [lit for node in range(aig.num_nodes)
                     for lit in (2 * node, 2 * node + 1)]
        for _ in range(5):
            assumed = [rng.choice(pool) ^ rng.getrandbits(1)
                       for _ in range(rng.randint(0, 3))]
            got = demand.solver.solve([demand.assumption(lit)
                                       for lit in assumed])
            assert got == naive.solver.solve([naive.dimacs(lit)
                                              for lit in assumed])
            if not got:
                continue
            inputs = [demand.lit_value(2 * node)
                      for node in range(1, aig.num_nodes)
                      if not aig.is_and(node)]
            assert [demand.lit_value(lit) for lit in every_lit] == \
                aig.evaluate(inputs, every_lit)
            assert all(demand.lit_value(lit) for lit in units + assumed)
        # Demand never pays for more than the reference does.
        assert demand.solver.num_vars() <= naive.solver.num_vars()

    @pytest.mark.parametrize("inner_first", [False, True])
    def test_inner_and_of_an_xor_is_encoded_only_when_asked(
            self, inner_first):
        aig = AIG()
        a, b = aig.new_input(), aig.new_input()
        x = aig.xor_(a, b)
        inner = aig.and_(a, b)      # one of the XOR's own three rows
        assert aig.num_ands == 3
        cnf = CnfBuilder(aig, Solver())
        solver = cnf.solver
        base_vars, base_clauses = solver.num_vars(), \
            solver.stats.clauses_added
        for step, lit in enumerate((inner, x) if inner_first
                                   else (x, inner)):
            cnf.lit_to_dimacs(lit)
            if step == 0:
                # Two inputs plus the gate asked for, and only it.
                assert solver.num_vars() == base_vars + 3
                assert solver.stats.clauses_added == base_clauses + \
                    (3 if inner_first else 4)
        # Either order: one variable and four ternary clauses for the
        # XOR, one and three for the AND, none for the other two rows.
        assert solver.num_vars() == base_vars + 4
        assert solver.stats.clauses_added == base_clauses + 7
        for va in (False, True):
            for vb in (False, True):
                assumed = [cnf.assumption(a ^ (not va)),
                           cnf.assumption(b ^ (not vb))]
                assert solver.solve(assumed) is True
                assert cnf.lit_value(x) is (va != vb)
                assert cnf.lit_value(inner) is (va and vb)
                for lit, value in ((x, va != vb), (inner, va and vb)):
                    wrong = cnf.assumption(lit ^ value)
                    assert solver.solve(assumed + [wrong]) is False

    def test_unrequested_logic_costs_nothing_and_still_reads_back(self):
        aig = AIG()
        ins = [aig.new_input() for _ in range(6)]
        asked = aig.mux(ins[0], ins[1], ins[2])
        total, carry = aig.full_adder(ins[3], ins[4], ins[5])
        mixed = aig.and_(asked, aig.xor_(total, ins[0]))  # over both
        cnf = CnfBuilder(aig, Solver())
        cnf.assert_lit(asked)
        # Constant, three inputs, one ITE: the adder never reached the
        # solver, nor did the multiplexer's two inner ANDs.
        assert cnf.solver.num_vars() == 5
        assert cnf.solver.stats.clauses_added == 1 + 6 + 1
        assert cnf.solver.solve() is True
        inputs = [cnf.lit_value(lit) for lit in ins]
        assert inputs[3:] == [False, False, False]      # never encoded
        roots = [asked, total, carry, mixed, mixed ^ 1]
        assert [cnf.lit_value(lit) for lit in roots] == \
            aig.evaluate(inputs, roots)
        # A later request encodes the rest of the cone, and the values
        # read before (same formula, new solve) stay AIG-consistent.
        assert cnf.solver.solve([cnf.assumption(carry)]) is True
        inputs = [cnf.lit_value(lit) for lit in ins]
        assert sum(inputs[3:]) >= 2
        assert [cnf.lit_value(lit) for lit in roots] == \
            aig.evaluate(inputs, roots)

    def test_image_younger_than_the_model_reads_by_evaluation(self):
        """Asking for a literal *after* a solve gives it a variable the
        model does not have; its value is still the AIG's."""
        aig = AIG()
        a, b, c = (aig.new_input() for _ in range(3))
        x = aig.xor_(a, b)
        late = aig.mux(x, c, a)
        cnf = CnfBuilder(aig, Solver())
        assert cnf.solver.solve([cnf.assumption(x),
                                 cnf.assumption(a)]) is True
        cnf.lit_to_dimacs(late)         # encodes c and the multiplexer
        assert cnf.lit_value(c) is False        # unconstrained then
        assert cnf.lit_value(late) is False     # x ? c : a, x true
        assert cnf.lit_value(late ^ 1) is True
        assert cnf.solver.solve([cnf.assumption(late)]) is True
        assert cnf.lit_value(late) is True


class TestIteGate:
    """``Solver.add_ite_gate``: the truth table through every fold."""

    LITS = (1, -1, 2, -2, 3, -3)

    @staticmethod
    def _ite(s, t, e, values):
        def val(d):
            return values[abs(d)] ^ (d < 0)
        return val(t) if val(s) else val(e)

    @pytest.mark.parametrize(
        "facts", list(itertools.product((0, 1, -1), repeat=3)))
    def test_truth_table_under_level0_facts(self, facts):
        """Every operand triple over three variables — distinct, equal,
        complementary, the selector among the data — with each variable
        open, true or false at level 0."""
        for s in self.LITS:
            for t in self.LITS:
                for e in self.LITS:
                    solver = Solver()
                    for _ in range(3):
                        solver.add_var()
                    for var, fact in zip((1, 2, 3), facts):
                        if fact:
                            solver.add_clause([var * fact])
                    before = (solver.num_vars(),
                              solver.stats.clauses_added)
                    g = solver.add_ite_gate(s, t, e)
                    grown = (solver.num_vars() - before[0],
                             solver.stats.clauses_added - before[1])
                    decided = [bool(facts[abs(d) - 1]) for d in (s, t, e)]
                    if decided[0] or t == e:
                        assert grown == (0, 0)      # a chosen literal
                    elif decided[1] or decided[2] or \
                            abs(s) in (abs(t), abs(e)):
                        # An AND / OR of two operands, itself folded
                        # (or pinned: x AND -x is a variable and a unit).
                        assert grown in ((0, 0), (1, 3), (1, 1))
                    else:
                        # Four ternary clauses; a proper multiplexer
                        # (not an XOR) adds the two redundant ones.
                        assert grown == (1, 4 if t == -e else 6)
                    self._check_function(solver, g, s, t, e, facts)

    def _check_function(self, solver, g, s, t, e, facts):
        for bits in range(8):
            values = {v: bool(bits >> (v - 1) & 1) for v in (1, 2, 3)}
            if any(fact and values[var] != (fact > 0)
                   for var, fact in zip((1, 2, 3), facts)):
                continue
            assumed = [v if values[v] else -v for v in (1, 2, 3)]
            want = self._ite(s, t, e, values)
            decisions = solver.stats.decisions
            assert solver.solve(assumed) is True
            assert solver.model_value(abs(g)) ^ (g < 0) == want
            # ... by unit propagation alone: every clause is watched.
            assert solver.stats.decisions == decisions
            assert solver.solve(assumed + [-g if want else g]) is False

    def test_gate_call_keeps_add_clause_preconditions(self):
        solver = Solver()
        a, b, c = solver.add_var(), solver.add_var(), solver.add_var()
        with pytest.raises(SatError):
            solver.add_ite_gate(a, 0, c)
        with pytest.raises(SatError):
            solver.add_ite_gate(a, b, c + 1)
        assert solver.num_vars() == 3
        solver._trail_lim.append(len(solver._trail))    # mid-search
        with pytest.raises(SatError, match="search is in progress"):
            solver.add_ite_gate(a, b, c)
        solver._cancel_until(0)
        solver.add_clause([a])
        solver.add_clause([-a])
        assert solver.solve() is False
        # Dead formula: a literal comes back, nothing is allocated.
        assert solver.add_ite_gate(a, b, c) in (a, b, c)
        assert solver.num_vars() == 3


def _design_roots(system: TransitionSystem) -> list[E.Expr]:
    """Every untimed, resolved expression a frame of ``system`` blasts."""
    return (list(system.states.values()) + list(system.next.values())
            + list(system.init.values()) + list(system.defines.values())
            + list(system.constraints))


def _assert_framed_blast_is_substitution(system, extra_roots=()):
    """``blast(e, frame=t)`` against ``blast(at_time(e, t))``: same
    literals root by root, hence the same AIG node for node."""
    roots = _design_roots(system) + list(extra_roots)
    unroller = Unroller(system)
    reference, framed = BitBlaster(), BitBlaster()
    framed.signals = system.inputs.keys() | system.states.keys()
    for t in range(4):
        for root in roots:
            assert framed.blast(root, frame=t) == \
                reference.blast(unroller.at_time(root, t))
    assert framed.aig.num_nodes == reference.aig.num_nodes
    assert framed.known_vars() == reference.known_vars()


class TestFramedBlastDifferential:
    """The bit-level frame stamp is the expression-level substitution,
    literal for literal."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_generated_systems(self, seed):
        subject = random_design(seed)
        _assert_framed_blast_is_substitution(
            subject.system, [subject.prop.bad])

    @pytest.mark.parametrize("name", design_names())
    def test_registry_designs(self, name):
        design = get_design(name)
        ctx = MonitorContext(design.system())
        resolved = [
            ctx.add(spec.sva, name=spec.name).resolved_against(ctx.system)
            for spec in design.properties if spec.kind == "safety"]
        _assert_framed_blast_is_substitution(
            ctx.system, [e for r in resolved for e in (r.good, r.bad)])

    def test_framed_and_pretimed_variables_share_bits(self):
        blaster = BitBlaster()
        s = E.var("s", 4)
        framed = blaster.blast(E.add(s, E.const(1, 4)), frame=2)
        assert blaster.blast(E.var("s@2", 4)) == \
            blaster.blast(s, frame=2) == blaster.var_bits("s@2")
        assert blaster.blast(
            E.add(E.var("s@2", 4), E.const(1, 4))) == framed
        # Frames are separate variables; the untimed name is a third.
        assert blaster.blast(s, frame=3) != blaster.blast(s, frame=2)
        assert blaster.blast(s) != blaster.blast(s, frame=2)
        with pytest.raises(BitBlastError, match="two widths"):
            blaster.blast(E.var("s", 5), frame=2)

    def test_bind_folds_before_first_use_and_raises_after(self):
        blaster = BitBlaster()
        s = E.var("s", 3)
        blaster.bind("s@1", blaster.blast(E.const(5, 3)))
        assert blaster.blast(E.add(s, E.const(1, 3)), frame=1) == \
            blaster.blast(E.const(6, 3))
        assert blaster.aig.num_inputs == 0
        blaster.blast(s, frame=2)
        with pytest.raises(BitBlastError, match="already blasted"):
            blaster.bind("s@2", [0, 0, 0])

    def test_unknown_signal_is_rejected_only_when_framed(self):
        blaster = BitBlaster()
        blaster.signals = {"s"}
        blaster.blast(E.var("s", 2), frame=0)
        blaster.blast(E.var("ghost", 2))  # untimed: any name is a variable
        with pytest.raises(BitBlastError, match="'ghost'"):
            blaster.blast(E.var("ghost", 2), frame=0)


# ---------------------------------------------------------------------------
# Model checker vs simulator
# ---------------------------------------------------------------------------

def _random_system(rng: random.Random) -> TransitionSystem:
    """A small random 2-register machine with one input."""
    s = TransitionSystem(f"rand{rng.randrange(1000)}")
    inp = s.add_input("i", 2)
    a = s.add_state("a", 4, init=E.const(rng.randrange(16), 4))
    b = s.add_state("b", 4, init=E.const(rng.randrange(16), 4))
    choices = [
        E.add(a, E.zext(inp, 4)),
        E.sub(a, b),
        E.xor(a, b),
        E.ite(E.eq(inp, E.const(0, 2)), a, E.add(a, E.const(1, 4))),
    ]
    s.set_next("a", choices[rng.randrange(len(choices))])
    choices_b = [E.add(b, E.const(1, 4)), a, E.and_(a, b)]
    s.set_next("b", choices_b[rng.randrange(len(choices_b))])
    return s


class TestBmcCexReplay:
    def test_every_cex_replays_in_simulator(self):
        """BMC counterexamples are concrete executions: replaying the
        trace's inputs from reset must reproduce every state value."""
        rng = random.Random(5)
        found = 0
        for _ in range(25):
            system = _random_system(rng)
            target = rng.randrange(16)
            prop = SafetyProperty(
                "hit", E.eq(E.var("a", 4), E.const(target, 4)))
            result = bmc(system, prop, bound=6)
            if result.status is not Status.VIOLATED:
                continue
            found += 1
            trace = result.cex
            sim = Simulator(system)
            sim.reset()
            for t in range(trace.length):
                snap = sim.peek({"i": trace.value("i", t)})
                for name in ("a", "b"):
                    assert snap[name] == trace.value(name, t), \
                        (system.name, name, t)
                sim.step({"i": trace.value("i", t)})
            # And the final state is really bad.
            assert trace.value("a", trace.length - 1) == target
        assert found >= 5, "fuzz should produce a healthy number of CEXes"

    def test_step_cex_transitions_are_real(self):
        """Induction-step CEX windows obey the transition relation: loading
        the (unreachable) pre-state and applying the trace inputs yields
        the trace."""
        rng = random.Random(11)
        checked = 0
        for _ in range(25):
            system = _random_system(rng)
            target = rng.randrange(16)
            prop = SafetyProperty(
                "hit", E.eq(E.var("a", 4), E.const(target, 4)))
            result = k_induction(system, prop, KInductionOptions(max_k=2))
            if result.step_cex is None:
                continue
            checked += 1
            trace = result.step_cex
            sim = Simulator(system)
            sim.load_state({"a": trace.value("a", 0),
                            "b": trace.value("b", 0)})
            for t in range(trace.length - 1):
                sim.step({"i": trace.value("i", t)})
                for name in ("a", "b"):
                    assert sim.state_values[name] == \
                        trace.value(name, t + 1)
        assert checked >= 5


class TestProvenMeansNoSimulationViolation:
    def test_proofs_agree_with_long_simulations(self):
        """Random systems where induction proves a bound: long random
        simulations must never violate it (soundness spot check)."""
        rng = random.Random(23)
        proven_checked = 0
        for trial in range(20):
            system = _random_system(rng)
            # Every third trial uses the full-range bound, which is
            # always invariant, guaranteeing proof-path coverage; the
            # rest explore tighter bounds that only sometimes prove.
            bound = 15 if trial % 3 == 0 else rng.randrange(4, 16)
            prop = SafetyProperty.from_invariant(
                "inv", E.ule(E.var("a", 4), E.const(bound, 4)))
            result = k_induction(system, prop, KInductionOptions(max_k=3))
            if result.status is not Status.PROVEN:
                continue
            proven_checked += 1
            sim = Simulator(system)
            sim.reset()
            for t in range(200):
                snap = sim.step({"i": rng.randrange(4)})
                assert snap["a"] <= bound, (system.name, t)
        assert proven_checked >= 1


# ---------------------------------------------------------------------------
# SVA semantics vs a reference monitor interpreter
# ---------------------------------------------------------------------------

class TestSvaAgainstReferenceMonitor:
    def test_implication_matches_trace_interpretation(self):
        """`a |=> b` violations found by BMC match a direct trace walk."""
        rtl = """
            module duv (input clk, rst, input req,
                        output logic busy);
              always_ff @(posedge clk) begin
                if (rst) busy <= 1'b0;
                else busy <= req;
              end
            endmodule
        """
        design = elaborate(rtl)
        from repro.sva.compile import compile_property
        # True property: req |=> busy.
        system, good_prop = compile_property(design, "req |=> busy",
                                             name="ok")
        result = bmc(system, good_prop, bound=8)
        assert result.status is Status.BOUNDED_OK
        # False property: req |=> !busy must fail exactly one cycle
        # after a req.
        system2, bad_prop = compile_property(design, "req |=> !busy",
                                             name="nope")
        result2 = bmc(system2, bad_prop, bound=8)
        assert result2.status is Status.VIOLATED
        t = result2.k
        assert t >= 1
        assert result2.cex.value("req", t - 1) == 1
        assert result2.cex.value("busy", t) == 1
