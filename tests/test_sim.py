"""Simulator, stimulus, and invariant-screening tests."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.designs.registry import get_design
from repro.errors import SimulationError
from repro.flow.houdini import _drop_falsified
from repro.mine.static_engine import StaticSynthesizer
from repro.ir import expr as E
from repro.ir.system import TransitionSystem
from repro.mc.property import SafetyProperty
from repro.sim.simulator import Simulator
from repro.sim.stimulus import RandomStimulus, VectorStimulus
from repro.sim.screening import screen_invariants
from repro.trace.trace import Trace, TraceKind

GOLDEN = json.loads((Path(__file__).parent / "golden"
                     / "sim_step_values.json").read_text())


class TestReset:
    def test_counts_from_zero(self, counter_system):
        sim = Simulator(counter_system)
        sim.reset()
        values = [sim.step({"en": 1})["count"] for _ in range(20)]
        assert values == [i % 16 for i in range(20)]

    def test_enable_gates(self, counter_system):
        sim = Simulator(counter_system)
        sim.reset()
        sim.step({"en": 1})
        snap = sim.step({"en": 0})
        assert snap["count"] == 1
        assert sim.step({"en": 0})["count"] == 1

    def test_uninitialized_needs_override(self):
        s = TransitionSystem("free")
        x = s.add_state("x", 4)
        s.set_next("x", x)
        sim = Simulator(s)
        with pytest.raises(SimulationError):
            sim.reset()
        sim.reset(overrides={"x": 7})
        assert sim.step({})["x"] == 7

    def test_unknown_override_rejected(self, counter_system):
        with pytest.raises(SimulationError):
            Simulator(counter_system).reset(overrides={"ghost": 1})

    def test_step_before_reset_rejected(self, counter_system):
        with pytest.raises(SimulationError):
            Simulator(counter_system).step({"en": 0})

    def test_missing_input_rejected(self, counter_system):
        sim = Simulator(counter_system)
        sim.reset()
        with pytest.raises(SimulationError):
            sim.step({})


class TestLoadState:
    def test_unreachable_state_replay(self, sync_counters_system):
        sim = Simulator(sync_counters_system)
        sim.load_state({"count1": 10, "count2": 200})
        snap = sim.step({})
        assert snap["count1"] == 10 and snap["count2"] == 200
        snap = sim.step({})
        assert snap["count1"] == 11 and snap["count2"] == 201

    def test_values_masked(self, counter_system):
        sim = Simulator(counter_system)
        sim.load_state({"count": 0x1F})
        assert sim.state_values["count"] == 0xF

    def test_missing_state_rejected(self, sync_counters_system):
        with pytest.raises(SimulationError):
            Simulator(sync_counters_system).load_state({"count1": 0})


class TestConstraints:
    def test_violation_detected(self, counter_system):
        counter_system.add_constraint(
            E.eq(counter_system.lookup("en"), E.true()))
        sim = Simulator(counter_system)
        sim.reset()
        sim.step({"en": 1})
        with pytest.raises(SimulationError):
            sim.step({"en": 0})

    def test_violation_ignored_when_disabled(self, counter_system):
        counter_system.add_constraint(
            E.eq(counter_system.lookup("en"), E.true()))
        sim = Simulator(counter_system, check_constraints=False)
        sim.reset()
        sim.step({"en": 0})  # no exception


class TestStimulus:
    def test_vector_stimulus(self, counter_system):
        sim = Simulator(counter_system)
        sim.reset()
        history = sim.run(VectorStimulus([{"en": 1}, {"en": 0},
                                          {"en": 1}]).cycles(
                                              counter_system))
        assert [h["count"] for h in history] == [0, 1, 1]

    def test_random_stimulus_deterministic(self, counter_system):
        a = [dict(v) for v in RandomStimulus(10, seed=5).cycles(
            counter_system)]
        b = [dict(v) for v in RandomStimulus(10, seed=5).cycles(
            counter_system)]
        assert a == b

    def test_random_stimulus_pins(self, counter_system):
        for v in RandomStimulus(10, seed=1, pinned={"en": 1}).cycles(
                counter_system):
            assert v["en"] == 1

    def test_rejection_sampling_respects_constraints(self):
        s = TransitionSystem("constrained")
        a = s.add_input("a", 4)
        x = s.add_state("x", 4, init=E.const(0, 4), next_=a)
        s.add_constraint(E.ult(a, E.const(4, 4)))
        for v in RandomStimulus(30, seed=2).cycles(s):
            assert v["a"] < 4


def full_counter() -> TransitionSystem:
    """A 2-bit counter that may not be pushed when full: the constraint
    reads an input *and* a register."""
    s = TransitionSystem("full_counter")
    push = s.add_input("push", 1)
    cnt = s.add_state("cnt", 2, init=E.const(0, 2))
    s.set_next("cnt", E.ite(push, E.add(cnt, E.const(1, 2)), cnt))
    s.add_constraint(E.not_(E.and_(E.eq(cnt, E.const(3, 2)), push)))
    return s


class TestStateDependentInputConstraints:
    @pytest.mark.parametrize("seed", range(5))
    def test_constraint_is_checked_against_the_live_state(self, seed):
        system = full_counter()
        sim = Simulator(system, check_constraints=True)
        sim.reset()
        history = sim.run(RandomStimulus(40, seed=seed).cycles(
            system, lambda: sim.state_values))
        assert len(history) == 40
        assert any(snap["cnt"] == 3 for snap in history)

    def test_screen_keeps_an_invariant_of_the_constrained_design(self):
        # Inside the environment the counter saturates at 3 and never
        # wraps, so "once full, always full" shows as cnt_was_full -> full.
        system = full_counter()
        was_full = system.add_state("was_full", 1, init=E.const(0, 1))
        full = E.eq(system.states["cnt"], E.const(3, 2))
        system.set_next("was_full", E.or_(was_full, full))
        [report] = screen_invariants(
            system, [E.bool_implies(was_full, full)], runs=5,
            cycles_per_run=40)
        assert report.passed and report.cycles_checked == 200

    def test_without_state_only_pure_input_constraints_are_enforced(self):
        system = full_counter()
        system.add_input("sel", 2)
        system.add_constraint(E.ult(system.inputs["sel"], E.const(2, 2)))
        for inputs in RandomStimulus(30, seed=1).cycles(system):
            assert inputs["sel"] < 2


class TestBrokenExpressionsSurface:
    """Only the two expected errors are handled around evaluation
    (``SimulationError``: no init value; ``IRError``: no value for a
    variable).  An expression that cannot be evaluated at all -- here an
    ``eq`` with one operand, built behind the factories' backs -- must
    raise at every site instead of reading as "fine"."""

    @staticmethod
    def broken(name: str, width: int = 1) -> E.Expr:
        return E._mk("eq", width, (E.var(name, width),))

    def broken_init_system(self) -> TransitionSystem:
        s = TransitionSystem("broken_init")
        s.add_input("en", 1)
        s.add_state("x", 1, next_=E.var("x", 1))
        s.init["x"] = self.broken("x")
        return s

    def test_screen_does_not_fall_back_to_the_zero_state(self):
        with pytest.raises(TypeError):
            screen_invariants(self.broken_init_system(),
                              [E.not_(E.var("x", 1))], runs=1,
                              cycles_per_run=2)

    def test_sampling_does_not_fall_back_to_the_zero_state(self):
        with pytest.raises(TypeError):
            StaticSynthesizer(self.broken_init_system())._sample_states()

    def test_stimulus_does_not_accept_the_sample(self, counter_system):
        counter_system.add_constraint(self.broken("en"))
        with pytest.raises(TypeError):
            next(RandomStimulus(3).cycles(counter_system))

    def test_houdini_does_not_keep_the_candidate(self, counter_system):
        trace = Trace.from_model_values(
            counter_system, [{"en": 1, "count": 0}], TraceKind.BMC_CEX)
        with pytest.raises(TypeError):
            _drop_falsified(counter_system,
                            [SafetyProperty("p", self.broken("en"))],
                            trace, 0, "falsified")

    def test_the_expected_errors_are_still_handled(self, counter_system):
        counter_system.init.pop("count")      # nondeterministic reset
        [report] = screen_invariants(
            counter_system, [E.ule(E.var("count", 4), E.const(15, 4))],
            runs=1, cycles_per_run=5)
        assert report.passed and report.cycles_checked == 5
        trace = Trace.from_model_values(
            counter_system, [{"en": 1, "count": 0}], TraceKind.BMC_CEX)
        outside = SafetyProperty("p", E.var("_mon.elsewhere", 1))
        survivors, dropped = _drop_falsified(
            counter_system, [outside, outside], trace, 0, "falsified")
        assert survivors == [outside]         # kept; one tie-break drop
        assert [reason for _, reason in dropped] == \
            ["falsified (tie-break drop)"]


class TestScreening:
    def test_true_invariant_survives(self, sync_counters_system):
        good = E.eq(E.var("count1", 8), E.var("count2", 8))
        reports = screen_invariants(sync_counters_system, [good], runs=3,
                                    cycles_per_run=20)
        assert reports[0].passed

    def test_false_candidate_caught(self, counter_system):
        bogus = E.ult(E.var("count", 4), E.const(3, 4))
        reports = screen_invariants(counter_system, [bogus], runs=3,
                                    cycles_per_run=30)
        assert not reports[0].passed
        assert reports[0].failing_env is not None

    def test_reports_align_with_candidates(self, counter_system):
        always = E.ule(E.var("count", 4), E.const(15, 4))
        never = E.ult(E.var("count", 4), E.const(1, 4))
        reports = screen_invariants(counter_system, [always, never],
                                    runs=2, cycles_per_run=20)
        assert reports[0].passed and not reports[1].passed


class TestSimulatorAgainstEvaluator:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_step_values_match_the_tree_walking_interpreter(self, name):
        """``tests/golden/sim_step_values.json`` is 50 cycles of
        ``SimState.values`` (inputs, registers and every define) per
        non-ecc registry design, recorded with the tree-walking
        interpreter this kernel replaced."""
        golden = GOLDEN[name]
        system = get_design(name).system()
        sim = Simulator(system)
        sim.reset()
        for row in golden["cycles"]:
            expected = dict(zip(golden["signals"], row))
            snap = sim.step({n: expected[n] for n in system.inputs})
            assert snap.values == expected
            assert list(snap.values) == golden["signals"]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**8 - 1), st.lists(st.booleans(), min_size=1,
                                              max_size=20))
    def test_counter_trajectory(self, start, enables):
        s = TransitionSystem("c8")
        en = s.add_input("en", 1)
        c = s.add_state("count", 8, init=E.const(start, 8))
        s.set_next("count", E.ite(en, E.add(c, E.const(1, 8)), c))
        sim = Simulator(s)
        sim.reset()
        expected = start
        for enable in enables:
            snap = sim.step({"en": int(enable)})
            assert snap["count"] == expected
            expected = (expected + int(enable)) & 0xFF
