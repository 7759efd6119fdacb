"""Model checker tests: unrolling, BMC, k-induction, engine facade."""

import pytest

from repro.designs.registry import get_design
from repro.errors import BitBlastError
from repro.flow.session import VerificationSession
from repro.hdl.elaborate import elaborate
from repro.ir import expr as E
from repro.ir.expr import timed_name, untimed_name
from repro.ir.system import TransitionSystem
from repro.mc.bmc import bmc, bmc_probe
from repro.mc.engine import EngineConfig, ProofEngine
from repro.mc.frame import FrameSolver
from repro.mc.kinduction import KInductionOptions, k_induction
from repro.mc.pdr.engine import pdr
from repro.mc.property import SafetyProperty
from repro.mc.result import Status
from repro.mc.unroll import Unroller
from repro.qa.oracle import replay_trace
from repro.sva.compile import MonitorContext
from repro.trace.trace import TraceKind


class TestUnroller:
    def test_timed_names(self):
        assert timed_name("count", 3) == "count@3"
        assert untimed_name("count@3") == ("count", 3)

    def test_at_time_substitutes_all_vars(self, counter_system):
        u = Unroller(counter_system)
        timed = u.at_time(counter_system.next["count"], 2)
        assert E.support(timed) == {"count@2", "en@2"}

    def test_init_constraints(self, counter_system):
        u = Unroller(counter_system)
        inits = u.init_constraints()
        assert len(inits) == 1
        assert E.evaluate(inits[0], {"count@0": 0}) == 1
        assert E.evaluate(inits[0], {"count@0": 3}) == 0

    def test_transition_links_frames(self, counter_system):
        u = Unroller(counter_system)
        (trans,) = u.transition(0)
        assert E.evaluate(trans, {"count@0": 5, "en@0": 1,
                                  "count@1": 6}) == 1
        assert E.evaluate(trans, {"count@0": 5, "en@0": 0,
                                  "count@1": 6}) == 0

    def test_state_distinct(self, sync_counters_system):
        u = Unroller(sync_counters_system)
        d = u.state_distinct(0, 1)
        same = {"count1@0": 1, "count2@0": 2, "count1@1": 1,
                "count2@1": 2}
        differ = dict(same, **{"count2@1": 3})
        assert E.evaluate(d, same) == 0
        assert E.evaluate(d, differ) == 1


def _bad_unequal(width=8):
    return E.ne(E.var("count1", width), E.var("count2", width))


class TestBmc:
    def test_good_design_bounded_ok(self, sync_counters_system):
        prop = SafetyProperty("eq", _bad_unequal())
        result = bmc(sync_counters_system, prop, bound=10)
        assert result.status is Status.BOUNDED_OK
        assert result.k == 10

    def test_bug_found_at_right_depth(self):
        s = TransitionSystem("bug")
        c1 = s.add_state("count1", 8, init=E.const(0, 8))
        c2 = s.add_state("count2", 8, init=E.const(0, 8))
        s.set_next("count1", E.add(c1, E.const(1, 8)))
        # count2 freezes when count1 == 3.
        s.set_next("count2", E.ite(E.eq(c1, E.const(3, 8)), c2,
                                   E.add(c2, E.const(1, 8))))
        result = bmc(s, SafetyProperty("eq", _bad_unequal()), bound=10)
        assert result.status is Status.VIOLATED
        assert result.k == 4
        assert result.cex is not None
        assert result.cex.kind is TraceKind.BMC_CEX
        assert result.cex.value("count1", 4) != result.cex.value("count2", 4)

    def test_valid_from_skips_warmup(self, sync_counters_system):
        # A property that is false at cycle 0 but checked only from 2.
        bad = E.eq(E.var("count1", 8), E.const(0, 8))
        prop = SafetyProperty("late", bad, valid_from=2)
        result = bmc(sync_counters_system, prop, bound=5)
        # count1==0 is bad; at cycles >= 2 count1 is 2.. so no violation
        # until wrap at 256 (beyond the bound).
        assert result.status is Status.BOUNDED_OK

    def test_lemma_prunes_cex(self):
        s = TransitionSystem("free2")
        x = s.add_state("x", 4)
        s.set_next("x", x)
        prop = SafetyProperty("small", E.ugt(E.var("x", 4),
                                             E.const(7, 4)))
        # Without knowledge, x is nondeterministic at init: violated.
        assert bmc(s, prop, bound=2).status is Status.VIOLATED
        lemma = (E.ule(E.var("x", 4), E.const(7, 4)), 0)
        assert bmc(s, prop, bound=2,
                   lemmas=[lemma]).status is Status.BOUNDED_OK

    def test_probe_finds_bug(self):
        s = TransitionSystem("bugp")
        c1 = s.add_state("count1", 8, init=E.const(0, 8))
        c2 = s.add_state("count2", 8, init=E.const(0, 8))
        s.set_next("count1", E.add(c1, E.const(1, 8)))
        s.set_next("count2", E.ite(E.eq(c1, E.const(5, 8)), c2,
                                   E.add(c2, E.const(1, 8))))
        result = bmc_probe(s, SafetyProperty("eq", _bad_unequal()),
                           bound=10)
        assert result.status is Status.VIOLATED
        assert result.k == 6

    def test_probe_budget_inconclusive(self, sync_counters_system):
        prop = SafetyProperty("eq", _bad_unequal())
        result = bmc_probe(sync_counters_system, prop, bound=12,
                           conflict_budget=1)
        assert result.status is Status.BOUNDED_OK

    def test_conflict_budget_spans_the_whole_run(self):
        """The budget caps the run's conflicts, not each depth's."""
        from repro.campaign.scheduler import compile_design
        prop, scoped = next(
            (prop, scoped)
            for _spec, prop, scoped in compile_design(get_design("fifo_ctrl"))
            if prop.name == "occupancy_bound")
        result = ProofEngine(scoped).check_bmc(prop, bound=20,
                                               conflict_budget=50)
        assert result.status is Status.BOUNDED_OK
        assert result.stats.conflicts <= 50


def _diverging_pair(width=4, stall_at=3):
    """count1/count2 from constant inits; count2 stalls once, so they
    diverge — with a free ``hold`` input freezing both."""
    s = TransitionSystem("diverge")
    hold = s.add_input("hold", 1)
    c1 = s.add_state("count1", width, init=E.const(0, width))
    c2 = s.add_state("count2", width, init=E.const(0, width))
    one = E.const(1, width)
    s.set_next("count1", E.ite(hold, c1, E.add(c1, one)))
    s.set_next("count2", E.ite(
        E.or_(hold, E.eq(c1, E.const(stall_at, width))), c2,
        E.add(c2, one)))
    return s


class TestUnknownSignal:
    """A variable the design does not have is an error, not a free
    input shared by every frame."""

    GHOST = E.var("ghost", 1)

    @pytest.mark.parametrize("check", [
        lambda s, p: bmc(s, p, bound=3),
        lambda s, p: bmc_probe(s, p, bound=3),
        lambda s, p: k_induction(s, p, KInductionOptions(max_k=2)),
        lambda s, p: pdr(s, p),
    ], ids=["bmc", "bmc_probe", "k_induction", "pdr"])
    def test_property_over_unknown_signal_raises(self, counter_system,
                                                 check):
        with pytest.raises(BitBlastError, match="'ghost'"):
            check(counter_system, SafetyProperty("ghost", self.GHOST, 0))

    @pytest.mark.parametrize("check", [
        lambda s, p, lemmas: bmc(s, p, bound=3, lemmas=lemmas),
        lambda s, p, lemmas: k_induction(
            s, p, KInductionOptions(max_k=2), lemmas=lemmas),
        lambda s, p, lemmas: pdr(s, p, lemmas=lemmas),
    ], ids=["bmc", "k_induction", "pdr"])
    def test_lemma_over_unknown_signal_raises(self, counter_system, check):
        prop = SafetyProperty.from_invariant(
            "small", E.ule(E.var("count", 4), E.const(15, 4)))
        with pytest.raises(BitBlastError, match="'ghost'"):
            check(counter_system, prop, [(self.GHOST, 0)])


    @pytest.mark.parametrize("strategy, proven", [
        ("k_induction", Status.PROVEN), ("pdr", Status.PROVEN),
        ("bmc", Status.BOUNDED_OK)])
    def test_define_whose_reading_folds_away_survives_scoping(
            self, strategy, proven):
        """``full == <full's own body>`` resolves to a constant, so the
        cone of influence kept no register and dropped the define the
        engines then had to resolve: k-induction and BMC raised, PDR
        read ``full`` as a free input and answered VIOLATED."""
        ctx = MonitorContext(get_design("fifo_ctrl").system())
        prop = ctx.add("full == ((wptr - rptr) == 5'd16)")
        engine = ProofEngine(ctx.system)
        assert "full" in engine.scoped_system(prop).defines
        assert engine.check(prop, strategy).status is proven


class TestFrameBinding:
    """FrameSolver defines timed states functionally (bound to the
    literals of their init / next value) and falls back to an asserted
    equation only where a timed variable already has inputs."""

    def test_constant_init_and_next_are_bound(self, sync_counters_system):
        frame = FrameSolver(sync_counters_system)
        frame.add_init()
        for t in range(4):
            frame.add_frame(t)
        # Input-free design from constant inits: every timed state is a
        # constant, so no AIG input and no AND node was ever created.
        assert frame.blaster.aig.num_inputs == 0
        assert frame.blaster.aig.num_ands == 0
        assert frame.solve() is True
        assert frame.timed_value("count1", 4) == 4
        assert frame.timed_value("count2", 3) == 3

    def test_init_over_variables_keeps_the_equation(self):
        s = TransitionSystem("mirror")
        seed = s.add_input("seed", 3)
        a = s.add_state("a", 3, init=E.const(5, 3))
        b = s.add_state("b", 3, init=E.add(a, seed))  # reads a and seed
        s.set_next("a", a)
        s.set_next("b", E.add(b, E.const(1, 3)))
        frame = FrameSolver(s)
        frame.add_init()
        aig = frame.blaster.aig
        # a@0 is bound to constants; b@0 and seed@0 are real inputs tied
        # by the asserted init equation.
        assert all(lit in (0, 1) for lit in frame.blaster.var_bits("a@0"))
        assert all(not aig.is_and(lit >> 1) and lit > 1
                   for lit in frame.blaster.var_bits("b@0"))
        assert frame.solve() is True
        assert frame.timed_value("a", 0) == 5
        assert frame.timed_value("b", 0) == \
            (5 + frame.timed_value("seed", 0)) % 8
        pinned = frame.assumption_at(
            E.ne(E.var("b", 3), E.add(E.const(5, 3), E.var("seed", 3))), 0)
        assert frame.solve([pinned]) is False
        # End to end: the counterexample honours the init equation.
        prop = SafetyProperty("b_not_7", E.eq(E.var("b", 3), E.const(7, 3)))
        result = bmc(s, prop, bound=4)
        assert result.status is Status.VIOLATED and result.k == 0
        assert replay_trace(s, prop, result) is None

    def test_frame_after_its_state_was_blasted_keeps_the_equation(
            self, counter_system):
        early = FrameSolver(counter_system)
        early.add_init()
        # Mention count@1 before the frame that defines it exists.
        early.assert_at(E.ne(E.var("count", 4), E.const(0, 4)), 1)
        bits = early.blaster.var_bits("count@1")
        early.add_frame(0)
        assert early.blaster.var_bits("count@1") == bits  # still inputs
        late = FrameSolver(counter_system)
        late.add_init()
        late.add_frame(0)
        late.assert_at(E.ne(E.var("count", 4), E.const(0, 4)), 1)
        for frame in (early, late):
            assert frame.solve() is True
            assert frame.timed_value("count", 0) == 0
            assert frame.timed_value("en", 0) == 1
            assert frame.timed_value("count", 1) == 1
            two = frame.assumption_at(
                E.eq(E.var("count", 4), E.const(2, 4)), 1)
            assert frame.solve([two]) is False

    def test_deeper_bound_interns_no_more_expressions(self):
        """No timed copy of the design is built: a deeper unrolling
        leaves the intern table where the shallow one left it."""
        system = elaborate(get_design("sync_counters").rtl,
                           params={"W": 16})
        prop = SafetyProperty("eq", _bad_unequal(16))
        assert bmc(system, prop, bound=4).status is Status.BOUNDED_OK
        shallow = E.intern_table_size()
        assert bmc(system, prop, bound=32).status is Status.BOUNDED_OK
        assert E.intern_table_size() == shallow

    def test_state_distinct_is_the_expression_level_constraint(
            self, sync_counters_system):
        frame = FrameSolver(sync_counters_system)
        for t in range(3):
            frame.add_frame(t)
        reference = Unroller(sync_counters_system).state_distinct(0, 2)
        # Same blaster, so structural hashing makes "same gates" mean
        # "same literal".
        assert frame.state_distinct(0, 2) == \
            frame.blaster.blast_bool(reference)

    @pytest.mark.parametrize("engine", ["bmc", "k_induction"])
    def test_counterexample_through_bound_states_replays(self, engine):
        s = _diverging_pair()
        prop = SafetyProperty("eq", _bad_unequal(4))
        if engine == "bmc":
            result = bmc(s, prop, bound=12)
        else:
            result = k_induction(s, prop, KInductionOptions(max_k=8))
        assert result.status is Status.VIOLATED
        assert result.k == 4
        assert result.cex.kind is TraceKind.BMC_CEX
        # States at t >= 1 were never solver inputs: their trace values
        # are read back through the literals they were bound to.
        assert result.cex.value("count1", 0) == 0
        assert result.cex.value("count1", result.k) != \
            result.cex.value("count2", result.k)
        assert replay_trace(s, prop, result) is None


class TestKInduction:
    def test_paper_example_fails_without_helper(self, sync_counters_system):
        bad = E.and_(E.redand(E.var("count1", 8)),
                     E.not_(E.redand(E.var("count2", 8))))
        result = k_induction(sync_counters_system,
                             SafetyProperty("equal_count", bad),
                             KInductionOptions(max_k=3))
        assert result.status is Status.UNKNOWN
        assert result.step_cex is not None
        assert result.step_cex.kind is TraceKind.STEP_CEX
        # The pre-state must violate count1 == count2 (it is unreachable).
        pre = {s.name: result.step_cex.value(s.name, 0)
               for s in result.step_cex.signals if s.kind == "state"}
        assert pre["count1"] != pre["count2"]

    def test_paper_example_proves_with_helper(self, sync_counters_system):
        bad = E.and_(E.redand(E.var("count1", 8)),
                     E.not_(E.redand(E.var("count2", 8))))
        helper = (E.eq(E.var("count1", 8), E.var("count2", 8)), 0)
        result = k_induction(sync_counters_system,
                             SafetyProperty("equal_count", bad),
                             KInductionOptions(max_k=2), lemmas=[helper])
        assert result.status is Status.PROVEN
        assert result.k == 1

    def test_helper_itself_proves(self, sync_counters_system):
        prop = SafetyProperty.from_invariant(
            "helper", E.eq(E.var("count1", 8), E.var("count2", 8)))
        result = k_induction(sync_counters_system, prop)
        assert result.status is Status.PROVEN and result.k == 1

    def test_base_case_violation_is_real_bug(self):
        s = TransitionSystem("bad_init")
        x = s.add_state("x", 4, init=E.const(9, 4))
        s.set_next("x", x)
        prop = SafetyProperty.from_invariant(
            "small", E.ule(E.var("x", 4), E.const(7, 4)))
        result = k_induction(s, prop, KInductionOptions(max_k=3))
        assert result.status is Status.VIOLATED
        assert result.cex is not None

    def test_simple_path_completes_finite_diameter(self):
        # Reachable cycle {0, 1}; an unreachable good cycle {4, 5} can
        # exit to the bad state 2, so plain induction never converges at
        # any depth, while the simple-path constraint caps the good-path
        # length and closes the proof.
        s = TransitionSystem("ghost_cycle")
        go = s.add_input("go", 1)
        x = s.add_state("x", 3, init=E.const(0, 3))

        def c(v):
            return E.const(v, 3)

        nxt = E.ite(E.eq(x, c(0)), c(1),
              E.ite(E.eq(x, c(1)), c(0),
              E.ite(E.eq(x, c(4)), c(5),
              E.ite(E.eq(x, c(5)), E.ite(go, c(4), c(2)),
                    c(0)))))
        s.set_next("x", nxt)
        prop = SafetyProperty.from_invariant(
            "never2", E.ne(E.var("x", 3), E.const(2, 3)))
        plain = k_induction(s, prop, KInductionOptions(max_k=4))
        assert plain.status is Status.UNKNOWN
        with_sp = k_induction(s, prop, KInductionOptions(
            max_k=4, simple_path=True))
        assert with_sp.status is Status.PROVEN
        assert with_sp.k == 3

    def test_deeper_k_proves_shift_property(self):
        s = TransitionSystem("pipe")
        din = s.add_input("din", 4)
        q1 = s.add_state("q1", 4, init=E.const(0, 4), next_=din)
        q2 = s.add_state("q2", 4, init=E.const(0, 4), next_=q1)
        # Monitor register holding din delayed by 2 (nondet init).
        p1 = s.add_state("p1", 4, next_=din)
        p2 = s.add_state("p2", 4, next_=p1)
        prop = SafetyProperty.from_invariant(
            "match", E.eq(E.var("q2", 4), E.var("p2", 4)), valid_from=2)
        result = k_induction(s, prop, KInductionOptions(max_k=4))
        assert result.status is Status.PROVEN
        assert result.k > 1  # needs history in the window

    def test_stats_populated(self, sync_counters_system):
        prop = SafetyProperty.from_invariant(
            "eq", E.eq(E.var("count1", 8), E.var("count2", 8)))
        result = k_induction(sync_counters_system, prop)
        assert result.stats.sat_queries >= 2
        assert result.stats.wall_seconds > 0
        assert result.stats.variables > 0


def _compiled(design: str, prop_name: str):
    """One registry property, compiled and scoped as a campaign does."""
    from repro.campaign.scheduler import compile_design
    [(scoped, prop)] = [(scoped, prop) for _spec, prop, scoped
                        in compile_design(get_design(design))
                        if prop.name == prop_name]
    return scoped, prop


def _check(spec: str, scoped, prop):
    from repro.mc.strategy import CheckTask, run_check_task
    return run_check_task(CheckTask(key=(), system=scoped, prop=prop,
                                    strategy=spec))


class TestKInductionBound:
    """``bound`` finishes k-induction's refutation search: the base case
    deepens past ``max_k`` through the same loop as ``bmc``."""

    def test_deep_bug_is_violated_and_replays(self):
        scoped, prop = _compiled("sync_counters_bug", "counters_equal")
        result = _check("k_induction(max_k=2, bound=20)", scoped, prop)
        assert result.status is Status.VIOLATED and result.k == 16
        assert result.detail == "base-case counterexample at depth 16"
        assert result.cex.kind is TraceKind.BMC_CEX
        assert replay_trace(scoped, prop, result) is None
        unbounded = _check("k_induction(max_k=2)", scoped, prop)
        assert unbounded.status is Status.UNKNOWN

    def test_clean_search_stays_unknown_with_its_step_cex(self):
        scoped, prop = _compiled("sync_counters", "equal_count")
        plain = _check("k_induction(max_k=2)", scoped, prop)
        result = _check("k_induction(max_k=2, bound=20)", scoped, prop)
        assert result.status is Status.UNKNOWN and result.k == 2
        assert result.step_cex is not None
        assert result.step_cex.kind is TraceKind.STEP_CEX
        assert plain.detail == "induction did not converge by k=2"
        assert result.detail == "induction did not converge by k=2; " \
            "no counterexample within 20 cycles"
        assert result.stats.max_depth == 20 and plain.stats.max_depth == 2
        assert "no counterexample within 20 cycles" in result.one_line()

    def test_covered_bound_issues_no_extra_query(self):
        """Up to ``max_k + valid_from - 1`` cycles the base case has
        already searched: such a bound changes nothing."""
        scoped, prop = _compiled("sync_counters", "equal_count")
        plain = _check("k_induction(max_k=3)", scoped, prop)
        covered = 3 + prop.valid_from - 1
        result = _check(f"k_induction(max_k=3, bound={covered})",
                        scoped, prop)
        assert result.stats.sat_queries == plain.stats.sat_queries
        assert result.detail == plain.detail
        assert result.stats.max_depth == plain.stats.max_depth
        deeper = _check(f"k_induction(max_k=3, bound={covered + 1})",
                        scoped, prop)
        assert deeper.stats.sat_queries == plain.stats.sat_queries + 1

    def test_base_case_is_bmcs_loop(self):
        """With no step case to run, k-induction's base case asks BMC's
        queries, one for one, and finds BMC's counterexample."""
        scoped, prop = _compiled("sync_counters_bug", "counters_equal")
        base = k_induction(scoped, prop, KInductionOptions(max_k=0),
                           bound=20)
        ref = bmc(scoped, prop, 20)
        assert base.status is ref.status is Status.VIOLATED
        assert base.k == ref.k
        assert (base.stats.sat_queries, base.stats.conflicts) == \
            (ref.stats.sat_queries, ref.stats.conflicts)
        assert [base.cex.value(n, t) for n in ("count1", "count2")
                for t in range(base.k + 1)] == \
            [ref.cex.value(n, t) for n in ("count1", "count2")
             for t in range(ref.k + 1)]

    def test_default_race_is_one_attempt(self):
        batch = VerificationSession(
            get_design("sync_counters_bug")).verify_all(jobs=2)
        violated = batch.result_for("counters_equal")
        assert violated.status is Status.VIOLATED and violated.k == 16
        for outcome in batch.outcomes:
            [row] = outcome.attempt_log
            assert row["strategy"].startswith("k_induction(bound=20")


class TestEngine:
    def test_coi_reduces_query(self, sync_counters_system):
        sync_counters_system.add_state("noise", 8, init=E.const(0, 8),
                                       next_=E.var("noise", 8))
        engine = ProofEngine(sync_counters_system)
        prop = SafetyProperty.from_invariant(
            "eq", E.eq(E.var("count1", 8), E.var("count2", 8)))
        scoped = engine.scoped_system(prop)
        assert "noise" not in scoped.states

    def test_lemma_pool_used(self, sync_counters_system):
        engine = ProofEngine(sync_counters_system, EngineConfig(max_k=2))
        bad = E.and_(E.redand(E.var("count1", 8)),
                     E.not_(E.redand(E.var("count2", 8))))
        prop = SafetyProperty("equal_count", bad)
        assert engine.prove(prop).status is Status.UNKNOWN
        eq = E.eq(E.var("count1", 8), E.var("count2", 8))
        assert engine.prove(prop, lemmas=[(eq, 0)]).status is \
            Status.PROVEN

    def test_bound_zero_searches_depth_zero(self):
        """``bound=0`` is a bound, not "use the default" (20, which
        finds this design's depth-16 bug)."""
        design = get_design("sync_counters_bug")
        session = VerificationSession(design)
        zero = session.bmc("counters_equal", bound=0)
        assert (zero.status, zero.k) == (Status.BOUNDED_OK, 0)
        deep = session.bmc("counters_equal", bound=16)
        assert (deep.status, deep.k) == (Status.VIOLATED, 16)
        ctx = MonitorContext(design.system())
        spec = design.property_spec("counters_equal")
        prop = ctx.add(spec.sva, name=spec.name)
        probe = ProofEngine(ctx.system).probe_bugs(prop, bound=0)
        assert probe.status is not Status.VIOLATED and probe.k == 0

    def test_bad_lemma_width_rejected(self, sync_counters_system):
        engine = ProofEngine(sync_counters_system)
        prop = SafetyProperty.from_invariant(
            "eq", E.eq(E.var("count1", 8), E.var("count2", 8)))
        for strategy in ("k_induction", "bmc", "pdr"):
            with pytest.raises(BitBlastError):
                engine.check(prop, strategy,
                             lemmas=[(E.var("count1", 8), 0)])
