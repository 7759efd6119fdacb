"""External SAT bridge: detection, parity, trust model, racing.

No real SAT binary ships in the test environment, so these tests build
their own: tiny Python scripts that answer DIMACS queries with the
in-process solver, written in both output conventions the bridge
supports ("stdout" for the kissat lineage, "file" for minisat's).  That
exercises every layer of the bridge — subprocess plumbing, output
parsing, model verification, strategy degradation, portfolio racing —
against a binary whose verdicts are known-good.
"""

import random
import stat
import sys
from pathlib import Path

import pytest

from helpers import brute_force_sat
from repro.aig.bitblast import BitBlaster
from repro.aig.cnf import CnfBuilder
from repro.designs import get_design
from repro.errors import SatError
from repro.ir import expr as E
from repro.ir.system import TransitionSystem
from repro.mc import PortfolioScheduler, ProofEngine, Status, VerifyTask
from repro.mc.property import SafetyProperty
from repro.sat.external import (ExternalSolverSpec, SubprocessSolver,
                                find_external_solver)
from repro.sat.solver import Solver
from repro.sva import MonitorContext

REPO_SRC = Path(__file__).resolve().parent.parent / "src"

STDOUT_SOLVER = f"""#!{sys.executable}
import sys
sys.path.insert(0, {str(REPO_SRC)!r})
from repro.sat.dimacs import solver_from_dimacs
with open(sys.argv[1]) as fp:
    s = solver_from_dimacs(fp.read())
if s.solve():
    print("s SATISFIABLE")
    print("v " + " ".join(str(l) for l in s.model()) + " 0")
    sys.exit(10)
print("s UNSATISFIABLE")
sys.exit(20)
"""

FILE_SOLVER = f"""#!{sys.executable}
import sys
sys.path.insert(0, {str(REPO_SRC)!r})
from repro.sat.dimacs import solver_from_dimacs
with open(sys.argv[1]) as fp:
    s = solver_from_dimacs(fp.read())
with open(sys.argv[2], "w") as out:
    if s.solve():
        out.write("SAT\\n")
        out.write(" ".join(str(l) for l in s.model()) + " 0\\n")
        sys.exit(10)
    out.write("UNSAT\\n")
sys.exit(20)
"""

# Claims SAT with an all-false model regardless of the query: any
# instance with a positive unit clause exposes the lie.
LIAR_SOLVER = f"""#!{sys.executable}
print("s SATISFIABLE")
print("v 0")
raise SystemExit(10)
"""


def _write_binary(tmp_path: Path, name: str, text: str) -> Path:
    path = tmp_path / name
    path.write_text(text)
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return path


@pytest.fixture
def stdout_binary(tmp_path):
    return _write_binary(tmp_path, "fakesat", STDOUT_SOLVER)


@pytest.fixture
def file_binary(tmp_path):
    return _write_binary(tmp_path, "fakeminisat", FILE_SOLVER)


class TestDetection:
    def test_nothing_installed_means_none(self, monkeypatch, tmp_path):
        monkeypatch.setenv("PATH", str(tmp_path))  # empty dir
        monkeypatch.delenv("REPRO_SAT_BINARY", raising=False)
        assert find_external_solver() is None

    def test_env_override_points_at_binary(self, monkeypatch,
                                           stdout_binary):
        monkeypatch.setenv("REPRO_SAT_BINARY", str(stdout_binary))
        spec = find_external_solver()
        assert spec is not None
        assert spec.path == str(stdout_binary)
        assert spec.style == "stdout"  # unknown names default to stdout

    def test_env_style_override(self, monkeypatch, file_binary):
        monkeypatch.setenv("REPRO_SAT_BINARY", str(file_binary))
        monkeypatch.setenv("REPRO_SAT_STYLE", "file")
        spec = find_external_solver()
        assert spec is not None and spec.style == "file"

    def test_known_name_on_path_autodetected(self, monkeypatch, tmp_path):
        _write_binary(tmp_path, "minisat", FILE_SOLVER)
        monkeypatch.setenv("PATH", str(tmp_path))
        monkeypatch.delenv("REPRO_SAT_BINARY", raising=False)
        spec = find_external_solver()
        assert spec is not None
        assert spec.name == "minisat" and spec.style == "file"

    def test_bad_style_rejected(self):
        with pytest.raises(SatError):
            ExternalSolverSpec(path="/bin/true", style="telepathy")


def _spec_for(binary: Path, style: str) -> ExternalSolverSpec:
    return ExternalSolverSpec(path=str(binary), style=style,
                              name=binary.name)


class TestSubprocessSolver:
    @pytest.mark.parametrize("style", ["stdout", "file"])
    def test_parity_on_random_cnfs(self, style, stdout_binary,
                                   file_binary):
        binary = stdout_binary if style == "stdout" else file_binary
        rng = random.Random(77)
        for _ in range(12):
            num_vars = rng.randint(3, 8)
            clauses = [[(v if rng.random() < 0.5 else -v)
                        for v in (rng.randint(1, num_vars)
                                  for _ in range(rng.randint(1, 3)))]
                       for _ in range(rng.randint(2, 24))]
            ext = SubprocessSolver(_spec_for(binary, style))
            for _ in range(num_vars):
                ext.add_var()
            ok = all(ext.add_clause(list(c)) for c in clauses)
            got = ext.solve() if ok else False
            assert got == brute_force_sat(num_vars, clauses)
            if got:
                # SAT answers are verified internally; the model is the
                # caller-visible witness and must satisfy every clause.
                model = ext.model()
                for clause in clauses:
                    assert any(model[abs(lit) - 1] == lit
                               for lit in clause)

    @pytest.mark.parametrize("style", ["stdout", "file"])
    def test_gate_encoding_parity_through_cnf_builder(
            self, style, stdout_binary, file_binary):
        """``CnfBuilder`` drives the external solver through the fused
        gate calls: three recorded clauses per AND, four per XOR / ITE
        shape, nothing folded, no variable for a node nobody asked for,
        and the same verdicts and consistent models as the in-process
        solver, which folds."""
        binary = stdout_binary if style == "stdout" else file_binary
        x, y = E.var("x", 4), E.var("y", 4)
        target = E.eq(E.add(x, y), E.const(9, 4))
        probes = [E.ult(x, E.const(3, 4)), E.eq(y, E.const(0, 4)),
                  E.and_(E.ult(x, E.const(2, 4)), E.ult(y, E.const(7, 4)))]
        blaster = BitBlaster()
        ext = SubprocessSolver(_spec_for(binary, style))
        gates = {"and": 0, "xor": 0, "ite": 0}
        for name in ("add_and_gate", "add_ite_gate"):
            def counted(*lits, _real=getattr(ext, name)):
                gates["and" if len(lits) == 2 else
                      "xor" if lits[1] == -lits[2] else "ite"] += 1
                return _real(*lits)
            setattr(ext, name, counted)
        ext_cnf = CnfBuilder(blaster.aig, ext)
        int_cnf = CnfBuilder(blaster.aig, Solver())
        # x is odd first: gates blasted afterwards see a level-0 fact.
        for fact in (E.bit(x, 0), target):
            lit = blaster.blast_bool(fact)
            ext_cnf.assert_lit(lit)
            int_cnf.assert_lit(lit)
        for probe in probes:
            lit = blaster.blast_bool(probe)
            got = ext.solve([ext_cnf.assumption(lit)])
            assert got == int_cnf.solver.solve([int_cnf.assumption(lit)])
            if got:
                env = {name: ext_cnf.bits_value(blaster.var_bits(name))
                       for name in ("x", "y")}
                assert E.evaluate(E.and_(target, probe), env) == 1
        # Never folds: the constant, the eight input bits and one
        # variable per gate call; the constant's unit + two asserted
        # units + 3 clauses per AND + 4 per XOR + 6 per multiplexer.
        # The adder's and the comparisons' XORs went down as shapes, so
        # their inner ANDs (nobody asked for them) have no variable.
        assert gates["and"] and gates["xor"]
        assert ext.num_vars() == 1 + 8 + sum(gates.values())
        assert ext.stats.clauses_added == 3 + 3 * gates["and"] + \
            4 * gates["xor"] + 6 * gates["ite"]
        assert ext.num_vars() < blaster.aig.num_nodes
        assert int_cnf.solver.num_vars() < ext.num_vars()

    def test_gate_call_validates_literals(self, stdout_binary):
        ext = SubprocessSolver(_spec_for(stdout_binary, "stdout"))
        a, b = ext.add_var(), ext.add_var()
        for bad in (0, 3, -3):
            with pytest.raises(SatError, match="bad literal"):
                ext.add_and_gate(a, bad)
        assert ext.num_vars() == 2 and ext.stats.clauses_added == 0
        g = ext.add_and_gate(a, -b)
        assert g == 3 and ext.stats.clauses_added == 3
        assert ext.solve([g]) is True
        assert ext.model_value(a) is True and ext.model_value(b) is False
        assert ext.solve([g, b]) is False
        for bad in (0, 4, -4):
            with pytest.raises(SatError, match="bad literal"):
                ext.add_ite_gate(a, b, bad)
        assert ext.num_vars() == 3 and ext.stats.clauses_added == 3

    def test_ite_gate_truth_table(self, stdout_binary):
        """Distinct operands, equal and complementary data, the selector
        among the data: always a fresh variable and four recorded
        clauses (six unless it is an XOR), and under each input
        assignment every gate is forced
        to its value (the wrong polarity of any of them is UNSAT)."""
        ext = SubprocessSolver(_spec_for(stdout_binary, "stdout"))
        a, b, c = ext.add_var(), ext.add_var(), ext.add_var()
        triples = [(a, b, c), (-a, c, -b), (a, b, -b), (c, -a, a),
                   (a, b, b), (a, a, c), (b, c, -b), (a, -a, a)]
        gates = [ext.add_ite_gate(*triple) for triple in triples]
        assert gates == list(range(4, 4 + len(triples)))
        assert ext.stats.clauses_added == sum(
            4 if t == -e else 6 for _s, t, e in triples)
        for bits in range(8):
            values = {v: bool(bits >> (v - 1) & 1) for v in (a, b, c)}

            def val(d):
                return values[abs(d)] ^ (d < 0)

            assumed = [v if values[v] else -v for v in (a, b, c)]
            want = [val(t) if val(s) else val(e) for s, t, e in triples]
            assert ext.solve(assumed) is True
            assert [ext.model_value(g) for g in gates] == want
            guard = ext.add_var()
            ext.add_clause([-guard] + [-g if value else g
                                       for g, value in zip(gates, want)])
            assert ext.solve(assumed + [guard]) is False

    def test_assumptions_become_units(self, stdout_binary):
        ext = SubprocessSolver(_spec_for(stdout_binary, "stdout"))
        a, b = ext.add_var(), ext.add_var()
        ext.add_clause([a, b])
        assert ext.solve([-a]) is True
        assert ext.model_value(b) is True
        assert ext.solve([-a, -b]) is False
        assert ext.solve([a]) is True  # assumptions don't persist

    def test_lying_binary_fails_loudly(self, tmp_path):
        liar = _write_binary(tmp_path, "liar", LIAR_SOLVER)
        ext = SubprocessSolver(_spec_for(liar, "stdout"))
        a = ext.add_var()
        ext.add_clause([a])
        with pytest.raises(SatError, match="violating clause"):
            ext.solve()

    def test_timeout_maps_to_indeterminate(self, tmp_path):
        sleeper = _write_binary(
            tmp_path, "sleeper",
            f"#!{sys.executable}\nimport time\ntime.sleep(30)\n")
        ext = SubprocessSolver(_spec_for(sleeper, "stdout"),
                               timeout_s=0.2)
        a = ext.add_var()
        ext.add_clause([a])
        assert ext.solve_limited() is None

    def test_no_verdict_is_an_error(self, tmp_path):
        silent = _write_binary(tmp_path, "silent",
                               f"#!{sys.executable}\nraise SystemExit(3)\n")
        ext = SubprocessSolver(_spec_for(silent, "stdout"))
        a = ext.add_var()
        ext.add_clause([a])
        with pytest.raises(SatError, match="no.*verdict"):
            ext.solve()

    def test_solve_seconds_accumulates(self, stdout_binary):
        ext = SubprocessSolver(_spec_for(stdout_binary, "stdout"))
        a = ext.add_var()
        ext.add_clause([a])
        assert ext.solve() is True
        assert ext.stats.solve_seconds > 0


def _check(design_name, prop_name, strategy, **options):
    design = get_design(design_name)
    ctx = MonitorContext(design.system())
    spec = design.property_spec(prop_name)
    prop = ctx.add(spec.sva, name=spec.name)
    return ProofEngine(ctx.system).check(prop, strategy, **options)


class TestExternalStrategy:
    def test_degrades_to_unknown_without_binary(self, monkeypatch,
                                                tmp_path):
        monkeypatch.setenv("PATH", str(tmp_path))
        monkeypatch.delenv("REPRO_SAT_BINARY", raising=False)
        result = _check("sync_counters_bug", "counters_equal",
                        "external", bound=25)
        assert result.status is Status.UNKNOWN
        assert "no external SAT binary" in result.detail

    def test_refutation_parity_with_internal_bmc(self, monkeypatch,
                                                 stdout_binary):
        monkeypatch.setenv("REPRO_SAT_BINARY", str(stdout_binary))
        external = _check("sync_counters_bug", "counters_equal",
                          "external", bound=25)
        internal = _check("sync_counters_bug", "counters_equal",
                          "bmc", bound=25)
        assert external.status is Status.VIOLATED
        assert external.status == internal.status
        assert external.k == internal.k
        assert external.cex is not None
        assert len(external.cex.steps) == len(internal.cex.steps)

    def test_lemma_parity_with_internal_bmc(self, monkeypatch,
                                            stdout_binary):
        """The external solver backs the same frame stamp, lemmas
        included: a lemma holds from its ``valid_from`` on, so it hides
        a bad state at cycle 1 only when it is valid from there."""
        monkeypatch.setenv("REPRO_SAT_BINARY", str(stdout_binary))
        system = TransitionSystem("latch")
        x = system.add_input("x", 3)
        s = system.add_state("s", 3, init=E.const(0, 3))
        system.set_next("s", x)
        prop = SafetyProperty.from_invariant(
            "not_5", E.ne(s, E.const(5, 3)))
        for valid_from, status in ((1, Status.BOUNDED_OK),
                                   (2, Status.VIOLATED)):
            lemmas = [(E.ne(s, E.const(5, 3)), valid_from)]
            engine = ProofEngine(system)
            external = engine.check(prop, "external", bound=3,
                                    extra_lemmas=lemmas)
            internal = engine.check(prop, "bmc", bound=3,
                                    extra_lemmas=lemmas)
            assert external.status is internal.status is status
            assert external.k == internal.k

    def test_wins_a_portfolio_race(self, monkeypatch, stdout_binary):
        """With a binary installed, the external refuter racing a slow
        prover must claim the win — the ISSUE's acceptance scenario."""
        monkeypatch.setenv("REPRO_SAT_BINARY", str(stdout_binary))
        system = TransitionSystem("diverge")
        c1 = system.add_state("count1", 3, init=E.const(0, 3))
        c2 = system.add_state("count2", 3, init=E.const(0, 3))
        one = E.const(1, 3)
        system.set_next("count1", E.add(c1, one))
        system.set_next("count2", E.ite(E.eq(c1, E.const(3, 3)), c2,
                                        E.add(c2, one)))
        prop = SafetyProperty.from_invariant(
            "equal", E.eq(E.var("count1", 3), E.var("count2", 3)))
        scheduler = PortfolioScheduler(jobs=1)
        [outcome] = scheduler.run([VerifyTask(
            system, prop,
            strategies=("external(bound=8)", "k_induction(max_k=2)"))])
        assert outcome.status is Status.VIOLATED
        assert outcome.strategy == "external(bound=8)"
        assert outcome.attempts == 1
        assert outcome.cancelled == 1  # k-induction never ran
