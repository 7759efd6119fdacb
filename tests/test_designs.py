"""Design-suite conformance: every bundle elaborates, simulates, and its
properties behave exactly as documented (the needs_helper ground truth
that the whole evaluation rests on)."""

import pytest

from repro.designs import all_designs, design_names, get_design
from repro.errors import DesignError
from repro.flow import VerificationSession
from repro.mc.engine import EngineConfig, ProofEngine
from repro.mc.result import Status
from repro.sim.simulator import Simulator
from repro.sim.stimulus import RandomStimulus
from repro.sva.compile import MonitorContext


class TestRegistry:
    def test_lookup(self):
        assert get_design("sync_counters").name == "sync_counters"
        with pytest.raises(DesignError):
            get_design("nonexistent")

    def test_names_match(self):
        assert set(design_names()) == {d.name for d in all_designs()}

    def test_missing_property_rejected(self):
        with pytest.raises(DesignError):
            get_design("sync_counters").property_spec("ghost")


@pytest.mark.parametrize("design", all_designs(), ids=lambda d: d.name)
class TestEveryDesign:
    def test_elaborates_and_validates(self, design):
        system = design.system()
        system.validate()
        assert system.states, f"{design.name} has no registers"

    def test_simulates_from_reset(self, design):
        system = design.system()
        sim = Simulator(system, check_constraints=False)
        sim.reset()
        stim = RandomStimulus(20, seed=1, pinned=_reset_pins(system))
        for inputs in stim.cycles(system, lambda: sim.state_values):
            sim.step(inputs)

    def test_spec_is_substantive(self, design):
        assert len(design.spec.split()) > 20

    def test_properties_compile(self, design):
        ctx = MonitorContext(design.system())
        for prop in design.properties:
            ctx.add(prop.sva, name=prop.name)


def _reset_pins(system):
    """Pin constrained inputs (resets) to their required values."""
    pins = {}
    for cond in system.constraints:
        if cond.op == "eq":
            a, b = cond.args
            if a.is_var and b.is_const:
                pins[a.name] = b.value
            elif b.is_var and a.is_const:
                pins[b.name] = a.value
    return pins


# (design, property) -> behaviour without any helper, at spec.max_k
_CASES = [(d, p) for d in all_designs() for p in d.properties]


@pytest.mark.parametrize(
    "design,prop", _CASES,
    ids=[f"{d.name}.{p.name}" for d, p in _CASES])
def test_expectation_without_helper(design, prop):
    session = VerificationSession(design, model="oracle")
    result = session.prove_direct(prop.name)
    if prop.expect == "violated":
        # Induction must not "prove" a false property; BMC finds the bug.
        assert result.status is not Status.PROVEN
        assert session.bmc(prop.name).status is Status.VIOLATED
    elif prop.needs_helper:
        assert result.status is Status.UNKNOWN, (
            f"{design.name}.{prop.name} was expected to need a helper")
        assert result.step_cex is not None
    else:
        assert result.status is Status.PROVEN, (
            f"{design.name}.{prop.name} should prove directly")


_HELPER_CASES = [(d, p) for d in all_designs()
                 for p in d.properties
                 if p.needs_helper and d.golden_helpers]


@pytest.mark.parametrize(
    "design,prop", _HELPER_CASES,
    ids=[f"{d.name}.{p.name}" for d, p in _HELPER_CASES])
def test_golden_helper_closes_proof(design, prop):
    """The documented golden lemma must make every helper-needing
    property provable — the ground truth behind the flow evaluations."""
    ctx = MonitorContext(design.system())
    engine = ProofEngine(ctx.system, EngineConfig(max_k=prop.max_k))
    lemmas = []
    for name, sva in design.golden_helpers:
        helper = ctx.add(sva, name=name)
        helper_result = engine.prove(helper, max_k=2)
        assert helper_result.status is Status.PROVEN, \
            f"golden helper {name} of {design.name} is not inductive"
        lemmas.append((helper.good, helper.valid_from))
    target = ctx.add(prop.sva, name=prop.name)
    result = engine.prove(target, max_k=prop.max_k, lemmas=lemmas)
    assert result.status is Status.PROVEN


class TestPaperListingFidelity:
    """The sync_counters bundle IS the paper's Listings 1-3."""

    def test_rtl_matches_listing1_shape(self):
        rtl = get_design("sync_counters").rtl
        assert "count1" in rtl and "count2" in rtl
        assert "count1++" in rtl and "count2++" in rtl
        assert "posedge clk or posedge rst" in rtl

    def test_property_matches_listing2(self):
        prop = get_design("sync_counters").property_spec("equal_count")
        assert "&count1 |-> &count2" in prop.sva

    def test_golden_helper_matches_listing3(self):
        helpers = get_design("sync_counters").golden_helpers
        assert helpers[0][1] == "count1 == count2"

    def test_width_parameter_sweepable(self):
        from repro.hdl.elaborate import elaborate
        system = elaborate(get_design("sync_counters").rtl,
                           params={"W": 16})
        assert system.states["count1"].width == 16
