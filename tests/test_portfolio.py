"""Portfolio scheduler: racing, cancellation, streaming, batch APIs."""

import pytest

from repro.designs import get_design
from repro.flow.session import VerificationSession
from repro.ir import expr as E
from repro.ir.system import TransitionSystem
from repro.mc.cache import ResultCache
from repro.mc.engine import ProofEngine
from repro.mc.portfolio import (DEFAULT_PORTFOLIO, PortfolioScheduler,
                                VerifyTask)
from repro.mc.result import Status
from repro.mc.property import SafetyProperty

STRATEGIES = ("k_induction(max_k=2)", "bmc(bound=4)")


@pytest.fixture
def diverging_system() -> TransitionSystem:
    """count2 lags count1 once it wraps: equality is violated at cycle 4."""
    s = TransitionSystem("diverge")
    c1 = s.add_state("count1", 3, init=E.const(0, 3))
    c2 = s.add_state("count2", 3, init=E.const(0, 3))
    one = E.const(1, 3)
    s.set_next("count1", E.add(c1, one))
    s.set_next("count2", E.ite(E.eq(c1, E.const(3, 3)), c2,
                               E.add(c2, one)))
    return s


def _equal_prop(width: int) -> SafetyProperty:
    return SafetyProperty.from_invariant(
        "equal", E.eq(E.var("count1", width), E.var("count2", width)))


def _tasks(system: TransitionSystem, props, race) -> list[VerifyTask]:
    """One task per property, each carrying ``race``."""
    return [VerifyTask(system, prop, tuple(race)) for prop in props]


class TestSchedulerConstruction:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            PortfolioScheduler(jobs=0)

    def test_rejects_empty_race(self, sync_counters_system):
        with pytest.raises(ValueError):
            PortfolioScheduler().run(
                _tasks(sync_counters_system, [_equal_prop(8)], ()))

    def test_rejects_bad_spec_eagerly(self, monkeypatch,
                                      sync_counters_system):
        """A bad spec anywhere in the batch fails before any slot runs."""
        import repro.mc.portfolio as portfolio
        from repro.mc.strategy import StrategyError

        def never(_check):
            raise AssertionError("no slot may run")

        monkeypatch.setattr(portfolio, "run_check_task", never)
        tasks = _tasks(sync_counters_system, [_equal_prop(8)], STRATEGIES)
        tasks += _tasks(sync_counters_system, [_equal_prop(8)],
                        ("not_a_strategy",))
        with pytest.raises(StrategyError):
            PortfolioScheduler().run(tasks)


class TestSequentialRacing:
    def test_prover_wins_and_refuter_is_skipped(self, sync_counters_system):
        [outcome] = PortfolioScheduler(jobs=1).run(_tasks(
            sync_counters_system, [_equal_prop(8)],
            ("k_induction(max_k=2)", "bmc(bound=8)")))
        assert outcome.status is Status.PROVEN
        assert outcome.strategy == "k_induction(max_k=2)"
        assert outcome.attempts == 1
        assert outcome.cancelled == 1  # bmc never ran

    def test_refuter_catches_violation(self, diverging_system):
        [outcome] = PortfolioScheduler(jobs=1).run(_tasks(
            diverging_system, [_equal_prop(3)],
            ("k_induction(max_k=1)", "bmc(bound=8)")))
        assert outcome.status is Status.VIOLATED
        assert outcome.result.cex is not None

    def test_inconclusive_prefers_first_strategy(self, diverging_system):
        # Neither strategy is conclusive: max_k too small to refute via
        # the base case (valid only 3 cycles), bound too small to reach
        # the divergence.
        prop = _equal_prop(3)
        [outcome] = PortfolioScheduler(jobs=1).run(_tasks(
            diverging_system, [prop],
            ("k_induction(max_k=1)", "bmc(bound=2)")))
        assert not outcome.status.conclusive
        assert outcome.strategy == "k_induction(max_k=1)"
        assert outcome.attempts == 2

    def test_empty_batch(self):
        assert PortfolioScheduler().run([]) == []


class TestParallelRacing:
    def test_parallel_verdicts_match_sequential(self, sync_counters_system,
                                                diverging_system):
        good = SafetyProperty.from_invariant(
            "equal", E.eq(E.var("count1", 8), E.var("count2", 8)))
        bad = SafetyProperty.from_invariant(
            "diverges", E.eq(E.var("count1", 3), E.var("count2", 3)))
        strategies = ("k_induction(max_k=2)", "bmc(bound=8)")
        tasks = _tasks(sync_counters_system, [good], strategies) + \
            _tasks(diverging_system, [bad], strategies)
        sequential = {o.property_name: o.status for o in
                      PortfolioScheduler(jobs=1).run(tasks)}
        parallel = {o.property_name: o.status for o in
                    PortfolioScheduler(jobs=2).run(tasks)}
        assert parallel == sequential
        assert parallel["equal"] is Status.PROVEN
        assert parallel["diverges"] is Status.VIOLATED

    def test_parallel_streams_one_outcome_per_property(self,
                                                       sync_counters_system):
        props = [
            SafetyProperty.from_invariant(
                "eq", E.eq(E.var("count1", 8), E.var("count2", 8))),
            SafetyProperty.from_invariant(
                "le", E.ule(E.var("count1", 8), E.var("count1", 8))),
        ]
        outcomes = list(PortfolioScheduler(jobs=2).stream(
            _tasks(sync_counters_system, props, STRATEGIES)))
        assert sorted(o.property_name for o in outcomes) == ["eq", "le"]

    def test_parallel_uses_cache_on_second_run(self, sync_counters_system):
        cache = ResultCache()
        prop = _equal_prop(8)
        tasks = _tasks(sync_counters_system, [prop], STRATEGIES)
        PortfolioScheduler(jobs=2, cache=cache).run(tasks)
        hits_before = cache.stats.hits
        [outcome] = PortfolioScheduler(jobs=2, cache=cache).run(tasks)
        assert outcome.from_cache
        assert cache.stats.hits > hits_before


def _explode(task):
    """Stands in for the pool's worker function (module-level: the
    pool pickles it by reference)."""
    raise RuntimeError(f"boom on {task.strategy}")


class TestPoolEdges:
    """The pooled executor's fault paths and its laziness."""

    def test_cache_settled_batch_builds_no_pool(self, monkeypatch,
                                                sync_counters_system):
        cache = ResultCache()
        prop = _equal_prop(8)
        tasks = _tasks(sync_counters_system, [prop], STRATEGIES)
        [cold] = PortfolioScheduler(jobs=2, cache=cache).run(tasks)

        def no_pool(*_args, **_kwargs):
            raise AssertionError("a warm batch must not build a pool")

        monkeypatch.setattr("repro.mc.portfolio.ProcessPoolExecutor",
                            no_pool)
        [warm] = PortfolioScheduler(jobs=2, cache=cache).run(tasks)
        assert warm.from_cache and warm.status is cold.status
        assert warm.strategy == cold.strategy

    def test_no_usable_pool_degrades_to_the_inline_race(
            self, monkeypatch, sync_counters_system, diverging_system):
        def unusable(*_args, **_kwargs):
            raise OSError("no multiprocessing here")

        monkeypatch.setattr("repro.mc.portfolio.ProcessPoolExecutor",
                            unusable)
        cache = ResultCache()
        race = ("k_induction(max_k=1)", "bmc(bound=8)")
        tasks = [VerifyTask(sync_counters_system, _equal_prop(8), race),
                 VerifyTask(diverging_system, _equal_prop(3), race,
                            tag="bad")]
        proven, violated = PortfolioScheduler(jobs=2, cache=cache).run(tasks)
        assert proven.status is Status.PROVEN
        assert [row["origin"] for row in proven.attempt_log] == \
            ["solver", "skipped"]        # never reached a pool
        assert proven.cancelled == 1
        assert violated.status is Status.VIOLATED and violated.tag == "bad"
        assert violated.strategy == "bmc(bound=8)"
        assert violated.attempts == 2
        assert cache.stats.stores == 3   # inline results are cached too

    def test_crashed_pool_child_reads_unknown_and_is_not_cached(
            self, monkeypatch, sync_counters_system):
        monkeypatch.setattr("repro.mc.portfolio._worker_run", _explode)
        cache = ResultCache()
        [outcome] = PortfolioScheduler(jobs=2, cache=cache).run(
            _tasks(sync_counters_system, [_equal_prop(8)], STRATEGIES))
        assert outcome.status is Status.UNKNOWN
        assert outcome.strategy == STRATEGIES[0]
        assert "k_induction(max_k=2) failed in worker: RuntimeError: " \
            "boom on k_induction(max_k=2)" in outcome.result.detail
        assert outcome.attempts == 2 and not outcome.from_cache
        assert cache.stats.stores == 0 and len(cache) == 0



def _shifted_equalities(n: int) -> list[SafetyProperty]:
    """``n`` distinct inductive equalities over the sync counters."""
    c1, c2 = E.var("count1", 8), E.var("count2", 8)
    return [SafetyProperty.from_invariant(
        f"eq_plus_{i}", E.eq(E.add(c1, E.const(i, 8)),
                             E.add(c2, E.const(i, 8))))
        for i in range(n)]


class TestSlotMajorQueue:
    """The pool's queue holds every race's first strategy before any
    race's second, so a won race drops the refuter it no longer needs."""

    RACE = ("k_induction(max_k=2)", "bmc(bound=12)")

    def test_won_races_drop_their_queued_refuters(self,
                                                  sync_counters_system):
        props = _shifted_equalities(8)
        tasks = _tasks(sync_counters_system, props, self.RACE)
        sequential = PortfolioScheduler(jobs=1).run(tasks)
        jobs = 2
        pooled = PortfolioScheduler(jobs=jobs).run(tasks)
        status = lambda outcomes: {o.property_name: o.status
                                   for o in outcomes}
        assert status(pooled) == status(sequential)
        assert set(status(pooled).values()) == {Status.PROVEN}
        # Only a call the pool has not yet handed on can be cancelled:
        # up to ``jobs`` sit in its workers and ``jobs + 1`` in its call
        # queue, so at most that many refuters run past their race.
        refuters = [o.attempt_log[1] for o in pooled]
        dropped = [row for row in refuters if row["origin"] == "cancelled"]
        assert len(dropped) >= len(props) - (2 * jobs + 1), refuters
        assert all(row["origin"] in ("cancelled", "discarded", "solver")
                   for row in refuters), refuters
        for outcome in pooled:
            unrun = [row["origin"] for row in outcome.attempt_log
                     if row["origin"] in ("cancelled", "skipped")]
            assert outcome.cancelled == len(unrun)

    def test_one_race_still_hands_both_slots_to_the_pool(
            self, sync_counters_system):
        [outcome] = PortfolioScheduler(jobs=2).run(
            _tasks(sync_counters_system, [_equal_prop(8)], self.RACE))
        assert outcome.status is Status.PROVEN
        origins = [row["origin"] for row in outcome.attempt_log]
        assert origins[0] == "solver" and "skipped" not in origins
        # A refuter that was running at the win is discarded, not
        # counted as a slot that never ran.
        assert outcome.cancelled == origins.count("cancelled")

    def test_fallback_walks_the_pools_queue_order(
            self, monkeypatch, sync_counters_system, diverging_system):
        from concurrent.futures import ProcessPoolExecutor

        import repro.mc.portfolio as portfolio

        race = ("k_induction(max_k=1)", "bmc(bound=8)")
        tasks = [VerifyTask(diverging_system, _equal_prop(3), race,
                            tag="bad"),
                 *_tasks(sync_counters_system, _shifted_equalities(3), race)]
        status = lambda outcomes: {(o.tag, o.property_name): o.status
                                   for o in outcomes}
        sequential = status(PortfolioScheduler(jobs=1).run(tasks))

        submitted = []

        class RecordingPool(ProcessPoolExecutor):
            def submit(self, fn, check):
                submitted.append((check.key, check.strategy))
                return super().submit(fn, check)

        monkeypatch.setattr(portfolio, "ProcessPoolExecutor",
                            RecordingPool)
        pooled = status(PortfolioScheduler(jobs=2).run(tasks))
        assert [spec for _key, spec in submitted] == \
            [race[0]] * len(tasks) + [race[1]] * len(tasks)

        def unusable(*_args, **_kwargs):
            raise OSError("no multiprocessing here")

        walked = []
        real_run = portfolio.run_check_task

        def recording_run(check):
            walked.append((check.key, check.strategy))
            return real_run(check)

        monkeypatch.setattr(portfolio, "ProcessPoolExecutor", unusable)
        monkeypatch.setattr(portfolio, "run_check_task", recording_run)
        fallback = status(PortfolioScheduler(jobs=2).run(tasks))
        assert fallback == pooled == sequential
        assert sequential[("bad", "equal")] is Status.VIOLATED
        # Every first slot, then the refuter of the one race they left
        # open: the pool's queue with the decided races' slots dropped.
        assert walked == [entry for entry in submitted
                          if entry[1] == race[0] or entry[0][0] == 0]


class TestBatchResults:
    def test_verify_all_result_for_each_property(self):
        design = get_design("updown_counter")
        names = [p.name for p in reversed(design.properties)]
        batch = VerificationSession(design).verify_all(names, jobs=1)
        # jobs=1 completes races in the requested order.
        assert [o.property_name for o in batch.outcomes] == names
        for name in names:
            assert batch.result_for(name).property_name == name
            assert batch.result_for(name).status is Status.PROVEN

    def test_task_lemmas_reach_the_race(self, sync_counters_system):
        engine = ProofEngine(sync_counters_system)
        # equal_msb alone is not inductive; the equality lemma closes it.
        msb = SafetyProperty.from_invariant(
            "msb", E.eq(E.bit(E.var("count1", 8), 7),
                        E.bit(E.var("count2", 8), 7)))
        [unaided] = PortfolioScheduler().run(
            [VerifyTask(engine.scoped_system(msb), msb, DEFAULT_PORTFOLIO)])
        assert unaided.status is Status.UNKNOWN
        lemmas = [(E.eq(E.var("count1", 8), E.var("count2", 8)), 0)]
        [aided] = PortfolioScheduler().run(
            [VerifyTask(engine.scoped_system(msb, lemmas), msb,
                        DEFAULT_PORTFOLIO, lemmas=lemmas)])
        assert aided.status is Status.PROVEN


class TestSessionVerifyAll:
    def test_counter_bank_batch(self):
        session = VerificationSession(get_design("sync_counters"))
        batch = session.verify_all(jobs=1)
        assert batch.design == "sync_counters"
        assert len(batch.outcomes) == 2
        assert batch.result_for("counters_equal").status is Status.PROVEN
        # equal_count needs a helper: inconclusive under the portfolio.
        assert not batch.result_for("equal_count").status.conclusive
        assert not batch.any_violated

    def test_seeded_bug_is_found_in_parallel(self):
        session = VerificationSession(get_design("sync_counters_bug"))
        batch = session.verify_all(jobs=2)
        assert batch.any_violated
        assert batch.result_for("counters_equal").cex is not None

    def test_batch_repeat_is_cache_served(self):
        session = VerificationSession(get_design("sync_counters"))
        session.verify_all(jobs=1)
        batch = session.verify_all(jobs=1)
        assert any(o.from_cache for o in batch.outcomes)
