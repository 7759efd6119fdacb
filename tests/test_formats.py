"""Interchange formats: AIGER/BTOR2 round-trips and the corpus.

The load-bearing invariant is *canonical serialization*: the readers
renumber arbitrary input into one canonical model, so isomorphism
checks reduce to ascii equality and the binary ``.aig`` twin of any
``.aag`` file re-renders byte-identically.  The hypothesis fuzz test
drives that invariant over random AIGs and also checks BMC verdicts
survive every round-trip.
"""

from __future__ import annotations

import shutil
import subprocess

import pytest
from hypothesis import given, settings, strategies as st

from repro.designs import Design, PropertySpec, get_design, load_corpus
from repro.designs.registry import CORPUS_ENV, designs_by_family
from repro.errors import DesignError, FormatError, ReproError
from repro.formats.aiger import (AigerModel, Latch, read_aiger,
                                 write_aiger_ascii, write_aiger_binary)
from repro.formats.bridge import aiger_to_system, system_to_aiger
from repro.formats.btor2 import read_btor2, write_btor2
from repro.formats.designio import export_design, import_design
from repro.ir import expr as E
from repro.ir.system import TransitionSystem
from repro.mc.bmc import bmc
from repro.mc.result import Status
from repro.mc.property import SafetyProperty


def _toggle_model() -> AigerModel:
    """One input, one toggle latch, one AND, a bad and a constraint."""
    return AigerModel(
        num_inputs=1,
        latches=[Latch(lit=4, next=5, reset=0)],
        ands=[(6, 4, 2)],
        outputs=[6],
        bads=[7],
        constraints=[3],
        symbols={"i0": "en", "l0": "toggle", "o0": "both",
                 "b0": "never", "c0": "env"},
        comments=["hand-built model"],
    )


class TestAigerRoundTrip:
    def test_ascii_preserves_everything(self):
        model = _toggle_model()
        text = write_aiger_ascii(model)
        back = read_aiger(text)
        assert back.symbols == model.symbols
        assert back.comments == model.comments
        assert [(lt.lit, lt.next, lt.reset) for lt in back.latches] \
            == [(4, 5, 0)]
        assert back.ands == model.ands
        assert back.bads == model.bads
        assert back.constraints == model.constraints
        assert write_aiger_ascii(back) == text

    def test_binary_twin_is_byte_identical_as_ascii(self):
        model = _toggle_model()
        text = write_aiger_ascii(model)
        blob = write_aiger_binary(model)
        assert blob.startswith(b"aig ")
        assert write_aiger_ascii(read_aiger(blob)) == text

    def test_latch_reset_values_survive(self):
        model = AigerModel(
            num_inputs=0,
            latches=[Latch(2, 3, reset=0), Latch(4, 2, reset=1),
                     Latch(6, 4, reset=6)],   # reset=lit: uninitialized
            bads=[6],
        )
        for data in (write_aiger_ascii(model),
                     write_aiger_binary(model)):
            back = read_aiger(data)
            assert [lt.reset for lt in back.latches] == [0, 1, 6]
            assert back.latches[2].uninitialized

    def test_noncanonical_input_is_renumbered(self):
        # Latch numbered above the AND, AND args swapped: the reader
        # must renumber into canonical order, not reject it.
        text = ("aag 3 1 1 1 1\n2\n6 4 1\n4\n4 2 6\n"
                "i0 x\nl0 q\n")
        model = read_aiger(text)
        model.validate()       # canonical shape
        assert model.symbols["l0"] == "q"
        # Stable under a second round-trip.
        again = read_aiger(write_aiger_ascii(model))
        assert write_aiger_ascii(again) == write_aiger_ascii(model)

    @pytest.mark.parametrize("text", [
        "",                                   # no header
        "aag 1 1\n",                          # short header
        "agg 0 0 0 0 0\n",                    # bad magic
        "aag 1 1 0 1 0\n2\n9\n",              # literal out of range
        "aag 1 0 1 0 0\n2 2 5\n",             # bad reset value
        "aag 2 1 1 0 1\n2\n4 8 0\n",          # A=1 but no AND line
        "aag 2 0 2 0 0\n2 4 0\n2 4 0\n",      # duplicate latch def
        "aag 2 1 0 0 1\n2\n4 4 5\n",          # AND depends on itself
    ])
    def test_malformed_aiger_raises(self, text):
        with pytest.raises(ReproError):
            read_aiger(text)

    def test_malformed_binary_raises(self):
        with pytest.raises(FormatError):
            read_aiger(b"aig 1 1 0 0 0\n\xff\xff\xff\xff\xff")


class TestBtor2:
    def test_roundtrip_system(self, counter_system):
        count = counter_system.states["count"]
        bad = E.eq(count, E.const(9, 4))
        text = write_btor2(counter_system, [("hits9", bad, 0)])
        system, props = read_btor2(text)
        assert [p["name"] for p in props] == ["hits9"]
        reread = system.resolve_defines(system.defines["bad_hits9"])
        verdict = bmc(system, SafetyProperty("hits9", reread), bound=10)
        original = bmc(counter_system, SafetyProperty("hits9", bad),
                       bound=10)
        assert verdict.status is original.status is Status.VIOLATED

    @pytest.mark.parametrize("text", [
        "1 sort bitvec\n",                    # missing width
        "1 sort bitvec 4\n2 frob 1\n",        # unknown op
        "1 sort bitvec 1\n2 state 1\n3 init 1 2 9\n",   # dangling ref
        "1 sort bitvec 4\n2 state 1\n3 bad 2\n",        # wide bad
        "1 sort array 1 1\n",                 # rejected subset
    ])
    def test_malformed_btor2_raises(self, text):
        with pytest.raises(FormatError):
            read_btor2(text)


class TestDesignIO:
    def test_metadata_survives_export_import(self, tmp_path):
        design = get_design("updown_counter")
        path = tmp_path / "ud.aag"
        path.write_text(export_design(design, "aiger"))
        back = import_design(path)
        expected = {(p.name, p.expect, p.max_k)
                    for p in design.properties}
        assert {(p.name, p.expect, p.max_k)
                for p in back.properties} == expected

    def test_unknown_format_rejected(self):
        with pytest.raises(FormatError):
            export_design(get_design("updown_counter"), "edif")

    def test_import_without_properties_rejected(self, tmp_path):
        path = tmp_path / "empty.aag"
        path.write_text("aag 1 1 0 0 0\n2\n")
        with pytest.raises(FormatError):
            import_design(path)


class TestCorpusLoader:
    def _populate(self, root):
        design = get_design("updown_counter")
        (root / "counters").mkdir(parents=True)
        (root / "counters" / "ud.aag").write_text(
            export_design(design, "aiger"))
        (root / "counters" / "ud.aig").write_bytes(
            export_design(design, "aiger", binary=True))
        (root / "top.btor2").write_text(export_design(design, "btor2"))

    def test_load_corpus_names_and_families(self, tmp_path):
        self._populate(tmp_path)
        designs = load_corpus(tmp_path)
        assert sorted(d.name for d in designs) == [
            "counters/ud.aag", "counters/ud.aig", "top.btor2"]
        families = designs_by_family(designs)
        assert sorted(families) == ["corpus", "counters"]
        assert {d.name for d in families["counters"]} == {
            "counters/ud.aag", "counters/ud.aig"}
        assert [d.name for d in families["corpus"]] == ["top.btor2"]

    def test_empty_corpus_rejected(self, tmp_path):
        with pytest.raises(DesignError):
            load_corpus(tmp_path)
        with pytest.raises(DesignError):
            load_corpus(tmp_path / "missing")

    def test_get_design_resolves_via_env(self, tmp_path, monkeypatch):
        self._populate(tmp_path)
        monkeypatch.setenv(CORPUS_ENV, str(tmp_path))
        design = get_design("counters/ud.aag")
        assert design.family == "counters"
        assert design.system().validate() is None
        with pytest.raises(DesignError):
            get_design("counters/nope.aag")


# ---------------------------------------------------------------------------
# Hypothesis fuzz: random AIGs survive every serialization unchanged.
# ---------------------------------------------------------------------------

@st.composite
def aiger_models(draw) -> AigerModel:
    num_inputs = draw(st.integers(0, 3))
    num_latches = draw(st.integers(1, 4))
    num_ands = draw(st.integers(0, 8))
    var = num_inputs + num_latches
    ands = []
    for _ in range(num_ands):
        var += 1
        lhs = 2 * var
        rhs0 = draw(st.integers(0, lhs - 1))
        rhs1 = draw(st.integers(0, rhs0))
        ands.append((lhs, rhs0, rhs1))
    max_lit = 2 * var + 1

    def lit() -> int:
        return draw(st.integers(0, max_lit))

    latches = []
    for i in range(num_latches):
        own = 2 * (num_inputs + 1 + i)
        reset = draw(st.sampled_from([0, 1, own]))
        latches.append(Latch(lit=own, next=lit(), reset=reset))
    model = AigerModel(
        num_inputs=num_inputs,
        latches=latches,
        ands=ands,
        outputs=[lit() for _ in range(draw(st.integers(0, 2)))],
        bads=[lit() for _ in range(draw(st.integers(1, 2)))],
        constraints=[lit() for _ in range(draw(st.integers(0, 1)))],
    )
    model.validate()
    return model


class TestFuzzRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(model=aiger_models())
    def test_serializations_are_isomorphic(self, model):
        text = write_aiger_ascii(model)
        from_ascii = read_aiger(text)
        from_binary = read_aiger(write_aiger_binary(model))
        # Canonical serialization == isomorphism witness.
        assert write_aiger_ascii(from_ascii) == text
        assert write_aiger_ascii(from_binary) == text

    @settings(max_examples=15, deadline=None)
    @given(model=aiger_models())
    def test_bmc_verdicts_survive_roundtrips(self, model):
        def verdict(m: AigerModel) -> list[Status]:
            system, props = aiger_to_system(m, "fuzz")
            out = []
            for p in props:
                bad = system.resolve_defines(
                    system.defines[f"bad_{p['name']}"])
                out.append(bmc(system, SafetyProperty(p["name"], bad),
                               bound=5).status)
            return out

        base = verdict(model)
        assert verdict(read_aiger(write_aiger_ascii(model))) == base
        assert verdict(read_aiger(write_aiger_binary(model))) == base
        # Through the IR and BTOR2 and back.
        system, props = aiger_to_system(model, "fuzz")
        triples = []
        for p in props:
            bad = system.resolve_defines(
                system.defines[f"bad_{p['name']}"])
            triples.append((p["name"], bad, 0))
        system2, props2 = read_btor2(write_btor2(system, triples))
        back = []
        for p in props2:
            bad = system2.resolve_defines(
                system2.defines[f"bad_{p['name']}"])
            back.append(bmc(system2, SafetyProperty(p["name"], bad),
                            bound=5).status)
        assert back == base


# ---------------------------------------------------------------------------
# Optional cross-check against the real aiger toolchain, when present.
# ---------------------------------------------------------------------------

AIGTOAIG = shutil.which("aigtoaig")


@pytest.mark.skipif(AIGTOAIG is None,
                    reason="aigtoaig not installed")
class TestExternalAigerTools:
    def test_aigtoaig_accepts_our_binary(self, tmp_path):
        design = get_design("updown_counter")
        aig = tmp_path / "ud.aig"
        aig.write_bytes(export_design(design, "aiger", binary=True))
        out = tmp_path / "ud.aag"
        subprocess.run([AIGTOAIG, str(aig), str(out)], check=True,
                       timeout=60)
        theirs = read_aiger(out.read_text())
        ours = read_aiger(export_design(design, "aiger"))
        assert write_aiger_ascii(theirs) == write_aiger_ascii(ours)
