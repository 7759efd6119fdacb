"""Tests for TransitionSystem and the IR passes."""

import pytest

from repro.errors import SystemError_
from repro.ir import expr as E
from repro.ir.passes import cone_of_influence, state_support
from repro.ir.system import TransitionSystem


class TestConstruction:
    def test_duplicate_names_rejected(self, counter_system):
        with pytest.raises(SystemError_):
            counter_system.add_input("count", 4)
        with pytest.raises(SystemError_):
            counter_system.add_state("en", 2)

    def test_width_mismatch_rejected(self, counter_system):
        with pytest.raises(SystemError_):
            counter_system.set_next("count", E.const(0, 5))
        with pytest.raises(SystemError_):
            counter_system.set_init("count", E.const(0, 3))

    def test_next_for_unknown_state(self, counter_system):
        with pytest.raises(SystemError_):
            counter_system.set_next("ghost", E.const(0, 4))

    def test_define_must_resolve(self, counter_system):
        with pytest.raises(SystemError_):
            counter_system.add_define("w", E.var("ghost", 4))

    def test_constraint_must_be_bool(self, counter_system):
        with pytest.raises(SystemError_):
            counter_system.add_constraint(E.var("count", 4))

    def test_validate_missing_next(self):
        s = TransitionSystem("broken")
        s.add_state("x", 4)
        with pytest.raises(SystemError_):
            s.validate()

    def test_validate_ok(self, counter_system):
        counter_system.validate()


class TestQueries:
    def test_lookup_and_width(self, counter_system):
        assert counter_system.lookup("count").width == 4
        assert counter_system.width_of("en") == 1
        with pytest.raises(SystemError_):
            counter_system.lookup("nope")

    def test_signals_iteration(self, counter_system):
        counter_system.add_define(
            "wrapped", E.eq(counter_system.lookup("count"),
                            E.const(15, 4)))
        kinds = {s.name: s.kind for s in counter_system.signals()}
        assert kinds == {"en": "input", "count": "state",
                         "wrapped": "define"}

    def test_clone_is_independent(self, counter_system):
        clone = counter_system.clone()
        clone.add_state("extra", 2, init=E.const(0, 2),
                        next_=E.const(0, 2))
        assert "extra" not in counter_system.states

    def test_resolve_defines(self, counter_system):
        count = counter_system.lookup("count")
        counter_system.add_define("is_max", E.eq(count, E.const(15, 4)))
        # Property expressions may reference defines by name; resolution
        # expands them down to inputs/states.
        resolved = counter_system.resolve_defines(
            E.and_(E.var("is_max", 1), E.var("en", 1)))
        assert E.support(resolved) == {"count", "en"}

    def test_define_may_not_reference_define(self, counter_system):
        count = counter_system.lookup("count")
        counter_system.add_define("is_max", E.eq(count, E.const(15, 4)))
        with pytest.raises(SystemError_):
            counter_system.add_define("near", E.var("is_max", 1))

    def test_env_with_defines(self, counter_system):
        count = counter_system.lookup("count")
        counter_system.add_define("is_max", E.eq(count, E.const(15, 4)))
        env = counter_system.env_with_defines({"count": 15, "en": 0})
        assert env["is_max"] == 1


class TestConeOfInfluence:
    def _two_island_system(self):
        s = TransitionSystem("islands")
        a = s.add_state("a", 4, init=E.const(0, 4))
        b = s.add_state("b", 4, init=E.const(0, 4))
        s.set_next("a", E.add(a, E.const(1, 4)))
        s.set_next("b", E.add(b, E.const(2, 4)))
        return s

    def test_unrelated_state_removed(self):
        s = self._two_island_system()
        reduced = cone_of_influence(s, [E.eq(s.lookup("a"),
                                             E.const(0, 4))])
        assert "a" in reduced.states and "b" not in reduced.states

    def test_chained_dependency_kept(self):
        s = TransitionSystem("chain")
        a = s.add_state("a", 4, init=E.const(0, 4))
        b = s.add_state("b", 4, init=E.const(0, 4))
        s.set_next("a", b)          # a depends on b
        s.set_next("b", E.add(b, E.const(1, 4)))
        keep = state_support(s, [E.eq(a, E.const(0, 4))])
        assert keep == {"a", "b"}

    def test_constraint_pulls_support(self):
        s = self._two_island_system()
        # A constraint linking a and b forces b to stay.
        s.add_constraint(E.eq(s.lookup("a"), s.lookup("b")))
        reduced = cone_of_influence(s, [E.eq(s.lookup("a"),
                                             E.const(0, 4))])
        assert set(reduced.states) == {"a", "b"}
        assert len(reduced.constraints) == 1

    def test_reduction_is_sound_for_proofs(self):
        from repro.mc.kinduction import k_induction
        from repro.mc.property import SafetyProperty
        from repro.mc.result import Status
        s = self._two_island_system()
        reduced = cone_of_influence(
            s, [E.ule(s.lookup("a"), E.const(15, 4))])
        prop = SafetyProperty.from_invariant(
            "bound", E.ule(E.var("a", 4), E.const(15, 4)))
        result = k_induction(reduced, prop)
        assert result.status is Status.PROVEN
