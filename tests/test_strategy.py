"""Strategy registry: resolution, spec parsing, task execution, pickling."""

import pickle

import pytest

from repro.ir import expr as E
from repro.mc.result import Status
from repro.mc.bmc import bmc
from repro.mc.cache import ResultCache
from repro.mc.engine import ProofEngine
from repro.mc.kinduction import k_induction
from repro.mc.property import SafetyProperty
from repro.mc.strategy import (CheckTask, StrategyError, get_strategy,
                               register_strategy, resolve_strategy,
                               run_check_task, strategy_names,
                               strategy_option_names)


@pytest.fixture
def equal_prop():
    return SafetyProperty.from_invariant(
        "eq", E.eq(E.var("count1", 8), E.var("count2", 8)))


class TestRegistry:
    def test_builtin_strategies_registered(self):
        names = strategy_names()
        for expected in ("bmc", "bmc_probe", "k_induction", "pdr",
                         "pdr_seeded", "external"):
            assert expected in names

    def test_get_strategy_capabilities(self):
        assert get_strategy("bmc").can_refute
        assert not get_strategy("bmc").can_prove
        assert get_strategy("k_induction").can_prove

    def test_get_unknown_strategy(self):
        with pytest.raises(StrategyError, match="unknown strategy"):
            get_strategy("magic")

    def test_register_duplicate_rejected(self):
        with pytest.raises(StrategyError, match="already registered"):
            register_strategy(get_strategy("bmc"), name="bmc")

    def test_register_replace(self):
        register_strategy(get_strategy("bmc"), name="bmc_alias")
        try:
            register_strategy(get_strategy("bmc"), name="bmc_alias",
                              replace=True)
        finally:
            from repro.mc import strategy as S
            S._REGISTRY.pop("bmc_alias", None)


class TestSpecResolution:
    def test_bare_name(self):
        strategy, options = resolve_strategy("k_induction")
        assert strategy.name == "k_induction"
        assert options == {}

    def test_options_parsed_as_literals(self):
        strategy, options = resolve_strategy(
            "k_induction(max_k=3, simple_path=True)")
        assert strategy.name == "k_induction"
        assert options == {"max_k": 3, "simple_path": True}

    def test_spec_overrides_registered_defaults(self):
        strategy, options = resolve_strategy(
            "pdr_seeded(seed_static=False)")
        assert strategy.name == "pdr"
        assert options == {"seed_static": False}

    @pytest.mark.parametrize("spec", [
        "", "bmc)", "bmc(bound)", "bmc(3)", "bmc(bound=open('x'))",
        "nope(bound=3)", "bmc(**kw)",
    ])
    def test_malformed_or_unknown_specs(self, spec):
        with pytest.raises(StrategyError):
            resolve_strategy(spec)

    @pytest.mark.parametrize("spec,option", [
        ("bmc(bnd=3)", "bnd"),
        ("pdr_seeded(seed_store_dir='x')", "seed_store_dir"),
        ("k_induction(keep_last_step_cex=False)", "keep_last_step_cex"),
    ])
    def test_options_the_strategy_does_not_take(self, spec, option):
        """Rejected where the spec is parsed, naming the option and what
        the strategy does take — not a ``TypeError`` in whichever
        process happens to run the check."""
        accepted = ", ".join(sorted(strategy_option_names(
            resolve_strategy(spec.split("(")[0])[0])))
        with pytest.raises(StrategyError) as raised:
            resolve_strategy(spec)
        assert f"takes no option {option}; accepted: {accepted}" in \
            str(raised.value)

    @pytest.mark.parametrize("spec", [
        "bmc(bound=-1)", "bmc_probe(bound=-1)", "k_induction(max_k=-1)",
        "pdr(max_frames=-1)", "pdr_seeded(max_frames=-2)",
    ])
    def test_negative_depths(self, spec):
        with pytest.raises(StrategyError, match="=-[12] is negative"):
            resolve_strategy(spec)

    def test_zero_depth_is_legal(self):
        assert resolve_strategy("bmc(bound=0)")[1] == {"bound": 0}
        assert resolve_strategy("k_induction", {"max_k": 0})[1] == \
            {"max_k": 0}

    @pytest.mark.parametrize("cache", [None, ResultCache()],
                             ids=["uncached", "cached"])
    def test_negative_call_depth(self, cache, sync_counters_system,
                                 equal_prop):
        """A depth passed beside the spec is checked the same way, and
        nothing reaches the cache."""
        engine = ProofEngine(sync_counters_system, cache=cache)
        with pytest.raises(StrategyError, match="bound=-1 is negative"):
            engine.check(equal_prop, "bmc", bound=-1)
        task = CheckTask(key=(), system=sync_counters_system,
                         prop=equal_prop, strategy="pdr",
                         options={"max_frames": -1})
        with pytest.raises(StrategyError,
                           match="max_frames=-1 is negative"):
            run_check_task(task)
        if cache is not None:
            assert len(cache) == 0

    @pytest.mark.parametrize("cache", [None, ResultCache()],
                             ids=["uncached", "cached"])
    def test_call_options_the_strategy_does_not_take(
            self, cache, sync_counters_system, equal_prop):
        """Options passed beside the spec are checked the same way,
        whether or not a cache keys the query first."""
        engine = ProofEngine(sync_counters_system, cache=cache)
        with pytest.raises(StrategyError, match="takes no option bnd"):
            engine.check(equal_prop, "bmc", bnd=3)
        task = CheckTask(key=(), system=sync_counters_system,
                         prop=equal_prop, strategy="k_induction",
                         options={"keep_last_step_cex": False})
        with pytest.raises(StrategyError,
                           match="takes no option keep_last_step_cex"):
            run_check_task(task)


class TestRunCheckTask:
    def test_matches_direct_kinduction(self, sync_counters_system,
                                       equal_prop):
        direct = k_induction(sync_counters_system, equal_prop)
        task = CheckTask(key=(0, 0), system=sync_counters_system,
                         prop=equal_prop, strategy="k_induction")
        via_task = run_check_task(task)
        assert via_task.status is direct.status is Status.PROVEN
        assert via_task.k == direct.k

    def test_matches_direct_bmc(self, sync_counters_system, equal_prop):
        direct = bmc(sync_counters_system, equal_prop, 6)
        task = CheckTask(key=(0, 0), system=sync_counters_system,
                         prop=equal_prop, strategy="bmc(bound=6)")
        via_task = run_check_task(task)
        assert via_task.status is direct.status is Status.BOUNDED_OK
        assert via_task.k == direct.k == 6

    def test_task_options_override_spec(self, sync_counters_system,
                                        equal_prop):
        task = CheckTask(key=(0, 0), system=sync_counters_system,
                         prop=equal_prop, strategy="bmc(bound=6)",
                         options={"bound": 2})
        assert run_check_task(task).k == 2

    def test_task_round_trips_through_pickle(self, sync_counters_system,
                                             equal_prop):
        task = CheckTask(key=(1, 2), system=sync_counters_system,
                         prop=equal_prop, strategy="k_induction",
                         options={"max_k": 4})
        clone = pickle.loads(pickle.dumps(task))
        assert clone.key == (1, 2)
        result = run_check_task(clone)
        assert result.status is Status.PROVEN


class TestExprPickling:
    def test_unpickled_exprs_are_interned(self):
        a = E.add(E.var("x", 8), E.const(3, 8))
        b = pickle.loads(pickle.dumps(a))
        assert b is a  # identity equality must survive the round trip

    def test_dag_sharing_preserved(self):
        shared = E.var("s", 4)
        root = E.and_(E.redor(shared), E.redand(shared))
        clone = pickle.loads(pickle.dumps(root))
        assert clone is root
        assert clone.args[0].args[0] is clone.args[1].args[0]
