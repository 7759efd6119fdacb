"""GenAI substrate tests: prompts, extraction, personas, hallucination,
the mined candidate pool the simulated client samples, and its text
round trip."""

import random

import pytest

from repro.designs import get_design
from repro.errors import GenAiError
from repro.genai import (
    SimulatedLLM,
    extract_assertions,
    get_persona,
    lemma_prompt,
    list_personas,
    repair_prompt,
    validate_assertions,
)
from repro.genai.client import _parse_cex_env
from repro.genai.hallucinate import corrupt
from repro.genai.personas import PAPER_MODELS
from repro.genai.prompts import split_prompt
from repro.ir import expr as E
from repro.mc.pdr.seed import compile_seed_predicates
from repro.mine.candidates import Candidate, dedupe, state_predicate
from repro.mine.cex_engine import candidate_holds_on, rank_for_cex
from repro.mine.static_engine import StaticSynthesizer


class TestPrompts:
    def test_lemma_prompt_roundtrip(self):
        prompt = lemma_prompt("the spec text", "module m; endmodule")
        sections = split_prompt(prompt)
        assert sections["task"] == "lemma"
        assert sections["spec"] == "the spec text"
        assert "module m" in sections["rtl"]

    def test_repair_prompt_roundtrip(self):
        prompt = repair_prompt("module m; endmodule", "a |-> b",
                               "time 0 1\nsig 0 1")
        sections = split_prompt(prompt)
        assert sections["task"] == "repair"
        assert "a |-> b" in sections["property"]
        assert "sig 0 1" in sections["cex"]

    def test_cex_env_parsing(self):
        text = ("time    k+0 k+1\n"
                "----\n"
                "count1  fffffffd fffffffe\n"
                "count2  ffffffff 00000000\n\n"
                "arbitrary induction pre-state (cycle k+0): "
                "count1=0xfffffffd, count2=0xffffffff")
        env = _parse_cex_env(text)
        assert env["count1"] == 0xFFFFFFFD
        assert env["count2"] == 0xFFFFFFFF


class TestExtraction:
    def test_fenced_property_block(self):
        text = ("Here you go:\n```systemverilog\n"
                "property p;\n  a == b;\nendproperty\n```\n")
        snippets = extract_assertions(text)
        assert len(snippets) == 1
        assert "a == b" in snippets[0]

    def test_unfenced_property_block(self):
        text = "property p;\n  a == b;\nendproperty\nhope that helps!"
        assert len(extract_assertions(text)) == 1

    def test_bare_fenced_body(self):
        text = "```systemverilog\ncount1 == count2\n```"
        snippets = extract_assertions(text)
        assert snippets == ["count1 == count2"]

    def test_mixed_response(self):
        text = ("1. first\n```systemverilog\nproperty a; x == y; "
                "endproperty\n```\n2. second (no fence!)\n"
                "property b; y <= 4'd2; endproperty\n")
        assert len(extract_assertions(text)) == 2

    def test_validation_classifies(self, sync_counters_system):
        snippets = [
            "property ok; count1 == count2; endproperty",
            "property bad_name; counter1 == count2; endproperty",
            "property bad_syntax; count1 === ; endproperty",
            "property bad_func; $one_hot(count1); endproperty",
        ]
        records = validate_assertions(sync_counters_system, snippets)
        assert [r.status for r in records] == \
            ["ok", "unknown_signal", "syntax_error", "unsupported"]


class TestPersonas:
    def test_paper_models_present(self):
        for name in PAPER_MODELS:
            assert get_persona(name).name == name

    def test_openai_dominates(self):
        for strong in ("gpt-4o", "gpt-4-turbo"):
            for weak in ("llama-3-70b", "gemini-1.5-pro"):
                s, w = get_persona(strong), get_persona(weak)
                assert s.recall > w.recall
                assert s.hallucination_rate < w.hallucination_rate
                assert s.extra_junk < w.extra_junk

    def test_unknown_model_rejected(self):
        with pytest.raises(GenAiError):
            get_persona("gpt-7-hyper")

    def test_listing(self):
        names = list_personas()
        assert "oracle" in names and "gpt-4o" in names


class TestHallucination:
    def test_corruption_changes_text(self):
        rng = random.Random(0)
        for body in ("count1 == count2", "state <= 4'hc", "$onehot(ptr)"):
            corrupted, kind = corrupt(body, rng)
            assert corrupted != body
            assert kind

    def test_corruption_kinds_cover_taxonomy(self):
        rng = random.Random(7)
        kinds = set()
        for _ in range(60):
            _, kind = corrupt("count1 == count2 && state <= 4'hc", rng)
            kinds.add(kind)
        assert {"misspelled_signal", "wrong_constant",
                "bent_operator"} <= kinds

    def test_deterministic_given_rng(self):
        a = corrupt("count1 == count2", random.Random(5))
        b = corrupt("count1 == count2", random.Random(5))
        assert a == b


class TestCandidates:
    def test_dedupe_keeps_best(self):
        cands = [Candidate("a == b", "x", 0.5),
                 Candidate("a  ==  b", "y", 0.9),
                 Candidate("c == d", "z", 0.3)]
        out = dedupe(cands)
        assert len(out) == 2
        assert out[0].score == 0.9


class TestStaticSynthesizer:
    def test_symmetric_counters_found(self):
        design = get_design("sync_counters")
        synth = StaticSynthesizer(design.system(), design.spec)
        bodies = [c.sva for c in synth.candidates()]
        assert "count1 == count2" in bodies

    def test_spec_hint_boosts(self):
        design = get_design("sync_counters")
        with_spec = StaticSynthesizer(design.system(), design.spec)
        without = StaticSynthesizer(design.system(), "")
        def get(s):
            return next(c for c in s.candidates()
                        if c.sva == "count1 == count2")
        assert get(with_spec).score > get(without).score

    def test_fifo_occupancy_relation_mined(self):
        design = get_design("fifo_ctrl")
        synth = StaticSynthesizer(design.system(), design.spec)
        bodies = [c.sva.replace(" ", "") for c in synth.candidates()]
        assert any(b == "count==wptr-rptr" for b in bodies)

    def test_onehot_mined_for_arbiter(self):
        design = get_design("rr_arbiter")
        synth = StaticSynthesizer(design.system(), design.spec)
        bodies = [c.sva for c in synth.candidates()]
        assert "$onehot(ptr)" in bodies

    def test_xor_relation_mined_for_ecc(self):
        design = get_design("ecc_pipeline")
        synth = StaticSynthesizer(design.system(), design.spec)
        bodies = [c.sva.replace(" ", "") for c in synth.candidates()]
        assert any(b in ("cw_q==(expected_cw^err_q)",
                         "cw_q==(err_q^expected_cw)") for b in bodies)

    def test_shadow_register_found(self):
        design = get_design("shift_pipe")
        synth = StaticSynthesizer(design.system(), design.spec)
        bodies = [c.sva for c in synth.candidates()]
        assert "q2 == $past(q1)" in bodies

    def test_nonzero_found_for_lfsr(self):
        design = get_design("lfsr16")
        synth = StaticSynthesizer(design.system(), design.spec)
        bodies = [c.sva for c in synth.candidates()]
        assert "state != 16'h0" in bodies


class TestCexRanking:
    def test_violated_candidate_boosted(self):
        design = get_design("sync_counters")
        system = design.system()
        pool = [Candidate("count1 == count2", "eq", 0.5),
                Candidate("count1 <= 32'hffffffff", "bound", 0.5)]
        pre = {"count1": 5, "count2": 9}
        ranked = rank_for_cex(system, pool, pre)
        assert ranked[0].sva == "count1 == count2"
        assert ranked[0].score > 0.9
        assert ranked[1].score < 0.5  # satisfied by the CEX: useless


class TestStatePredicate:
    """One SVA -> state-predicate compiler behind both consumers of the
    pool: CEX ranking and PDR's frame seeding."""

    @pytest.mark.parametrize("body", [
        "count1 == ",
        "count1 == bogus",
        "count1 == $past(count2)",
        "count1 == 0 |=> count2 == 0",
    ], ids=["syntax_error", "unknown_signal", "past", "monitor_state"])
    def test_no_single_state_meaning(self, body):
        system = get_design("sync_counters").system()
        env = {"count1": 5, "count2": 9, "rst": 0}
        assert state_predicate(system, body) is None
        assert candidate_holds_on(system, body, env) is None
        assert compile_seed_predicates(system, [body]) == []

    def test_both_consumers_see_one_expr(self):
        system = get_design("sync_counters").system()
        good = state_predicate(system, "count1 == count2")
        assert good is not None and good.width == 1
        seeds = compile_seed_predicates(system, ["count1 == count2"])
        assert len(seeds) == 1 and seeds[0] is good
        for count2, holds in ((5, True), (9, False)):
            env = {"count1": 5, "count2": count2}
            assert E.evaluate(good, env) == holds
            assert candidate_holds_on(system, "count1 == count2",
                                      env) is holds


class TestSimulatedClient:
    def test_lemma_task_roundtrip(self):
        design = get_design("sync_counters")
        llm = SimulatedLLM("oracle", seed=0)
        response = llm.complete(lemma_prompt(design.spec, design.rtl))
        snippets = extract_assertions(response.text)
        records = validate_assertions(design.system(), snippets)
        assert any(r.usable and "count1 == count2" in r.raw_text
                   for r in records)

    def test_repair_task_uses_cex(self):
        design = get_design("sync_counters")
        llm = SimulatedLLM("oracle", seed=0)
        cex = ("time k+0\ncount1 5\ncount2 9\n\n"
               "arbitrary induction pre-state (cycle k+0): "
               "count1=0x5, count2=0x9")
        response = llm.complete(
            repair_prompt(design.rtl, "&count1 |-> &count2", cex))
        assert "count1 == count2" in response.text

    def test_deterministic(self):
        design = get_design("sync_counters")
        prompt = lemma_prompt(design.spec, design.rtl)
        r1 = SimulatedLLM("llama-3-70b", seed=4).complete(prompt)
        r2 = SimulatedLLM("llama-3-70b", seed=4).complete(prompt)
        assert r1.text == r2.text
        r3 = SimulatedLLM("llama-3-70b", seed=5).complete(prompt)
        assert r1.text != r3.text  # seeds matter

    def test_latency_and_usage_accounted(self):
        design = get_design("sync_counters")
        response = SimulatedLLM("gpt-4-turbo", seed=0).complete(
            lemma_prompt(design.spec, design.rtl))
        assert response.latency_s > 0
        assert response.prompt_tokens > 100
        assert response.completion_tokens > 10

    def test_scrambler_mostly_hallucinates(self):
        design = get_design("fifo_ctrl")
        llm = SimulatedLLM("scrambler", seed=0)
        response = llm.complete(lemma_prompt(design.spec, design.rtl))
        records = validate_assertions(design.system(),
                                      extract_assertions(response.text))
        if records:
            bad = sum(1 for r in records if not r.usable)
            assert bad >= 0  # presence is enough; quality measured in E4

    def test_unrecognized_prompt_rejected(self):
        with pytest.raises(GenAiError):
            SimulatedLLM("gpt-4o").complete("what is the weather?")
