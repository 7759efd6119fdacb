"""One HDL-expression lowering, two doors.

``repro.hdl.lower`` is the only interpreter of ``hast.HdlExpr``; the RTL
elaborator and the SVA compiler both go through it.  These tests pin
that: the same snippet lowers to the same DAG through either door, the
registry lowers to the digests recorded before the merge, and the shapes
a hallucinating model produces are named rejections on both sides.

Regenerate the golden file (only when a lowering change is *meant*)::

    PYTHONPATH=src python tests/test_lowering.py \
        > tests/golden/lowering_digests.json
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.designs import all_designs, get_design
from repro.errors import ElaborationError, PropertyError
from repro.flow.session import VerificationSession
from repro.genai.client import LLMResponse
from repro.genai.parse import validate_assertions
from repro.hdl.elaborate import elaborate
from repro.ir import expr as E
from repro.ir.passes import cone_of_influence
from repro.mc.result import Status
from repro.mc.cache import system_fingerprint
from repro.mc.engine import ProofEngine
from repro.mc.kinduction import KInductionOptions, k_induction
from repro.sva.compile import MonitorContext

_GOLDEN = pathlib.Path(__file__).parent / "golden" / "lowering_digests.json"


def lowering_digests() -> dict:
    """Fingerprint of every registry design and of every safety property
    and golden helper compiled against it (fresh context each, so monitor
    names do not depend on what was compiled before)."""
    out: dict = {}
    for design in all_designs():
        system = design.system()
        props = {}
        texts = [(p.name, p.sva) for p in design.properties
                 if p.kind == "safety"]
        texts += [(f"helper:{name}", sva)
                  for name, sva in design.golden_helpers]
        for name, sva in texts:
            prop = MonitorContext(system).add(sva, name=name.split(":")[-1])
            props[name] = {
                "bad": E.structural_digest(prop.bad).hex(),
                "valid_from": prop.valid_from}
        out[design.name] = {"system": system_fingerprint(system),
                            "properties": props}
    return out


class TestGoldenDigests:
    def test_registry_lowers_to_the_recorded_dags(self):
        golden = json.loads(_GOLDEN.read_text())
        current = lowering_digests()
        assert sorted(current) == sorted(golden)
        assert len(current) == 12
        for name, entry in golden.items():
            assert current[name]["system"] == entry["system"], name
            assert current[name]["properties"] == entry["properties"], name


# One snippet list, two doors.  Every snippet is a 1-bit expression over
# the module below, so `assign y = <snippet>` (RTL door) and the bare
# invariant `<snippet>` (property door) must intern the very same node.
_BOTH_DOORS_RTL = """
module doors(input clk, input [7:0] a, input [3:0] b, input c,
             output [7:0] y);
  localparam N = 3;
  logic [3:0] mem [0:3];
  always_ff @(posedge clk) mem[b[1:0]] <= a[3:0];
  assign y = a;
endmodule
"""

_SNIPPETS = [
    # unary
    "!a", "~a == 8'd1", "-a == 8'd1", "+a == 8'd1", "&a", "|a", "^a",
    "~&a", "~|a", "~^a",
    # binary
    "a + b == 8'd1", "a - b == 8'd1", "a * b == 8'd1", "(a & b) == 8'd1",
    "(a | b) == 8'd1", "(a ^ b) == 8'd1", "(a ~^ b) == 8'd1",
    "a == b", "a != b", "a === b", "a !== b",
    "a < b", "a <= b", "a > b", "a >= b",
    "(a << b) == 8'd1", "(a >> 2) == 8'd1", "(a >>> b) == 8'd1",
    "a && b", "a || c",
    # ternary, concat, replication
    "(c ? a : b) == 8'd1", "(c ? 1 : 0) == 1", "{a, b} == 12'd1",
    "{2{b}} == a", "{N{c}} == 3'd7",
    # constant and variable index, slice, array element
    "a[3]", "a[N]", "a[b]", "a[7:4] == b", "a[N:1] == 3'd1",
    "mem[1] == 4'd3", "mem[N] == b", "mem[b[1:0]] == b",
    # fill literals and unsized mixes
    "a == '1", "a == '0", "a + 1 == 8'd0", "a == N", "1 + 1 == 2",
    "(1 << b) == 4", "1 && a", "(a ? '1 : b) == 4'd0",
    # shared system calls
    "$countones(a) == 3", "$onehot(a)", "$onehot0(b)", "$isunknown(a)",
    "$signed(a) == a", "$unsigned(b) == b", "a == $clog2(16)",
    "b == $clog2(N + 5)",
]


class TestTwoDoorsOneLowering:
    @pytest.mark.parametrize("snippet", _SNIPPETS)
    def test_same_digest_through_both_doors(self, snippet):
        rtl = _BOTH_DOORS_RTL.replace(
            "assign y = a;", f"assign y = a; wire probe = {snippet};")
        system = elaborate(rtl)
        # N is a parameter on the RTL side only: spell it out for the
        # property, which sees the elaborated system.
        prop = MonitorContext(system).add(
            snippet.replace("N", "3"), name="p")
        assert E.structural_digest(prop.bad) == \
            E.structural_digest(E.not_(system.defines["probe"]))

    def test_array_index_reads_the_element_on_both_sides(self):
        """`mem[1]` is element 1 — not bit 1 of the flattened vector —
        in the RTL and in a property."""
        system = elaborate("""
module m(input clk, input [1:0] i, input [3:0] d, output [3:0] y);
  logic [3:0] mem [0:3];
  always_ff @(posedge clk) mem[i] <= d;
  assign y = mem[1];
endmodule
""")
        assert system.arrays == {"mem": (4, 4)}
        ctx = MonitorContext(system)
        prop = ctx.add("y == mem[1]", name="same")
        result = k_induction(ctx.system, prop, KInductionOptions(max_k=1))
        assert result.status is Status.PROVEN
        compare = ctx.add("mem[1] == 4'd3", name="compare")
        assert compare.bad is E.not_(E.eq(
            E.extract(system.lookup("mem"), 7, 4), E.const(3, 4)))

    def test_array_shapes_survive_clone_coi_and_flattening(self):
        system = elaborate(_BOTH_DOORS_RTL)
        assert system.clone().arrays == {"mem": (4, 4)}
        mem = system.lookup("mem")
        assert cone_of_influence(system, [mem]).arrays == {"mem": (4, 4)}
        assert cone_of_influence(system, [E.var("a", 8)]).arrays == {}
        parent = elaborate(_BOTH_DOORS_RTL + """
module top(input clk, input [7:0] a, input [3:0] b, input c,
           output [7:0] y);
  doors u (.clk(clk), .a(a), .b(b), .c(c), .y(y));
endmodule
""")
        assert parent.arrays == {"u.mem": (4, 4)}
        prop = MonitorContext(parent).add("u.mem[2] == 4'd0", name="e")
        assert prop.bad is E.not_(E.eq(
            E.extract(parent.lookup("u.mem"), 11, 8), E.const(0, 4)))


# Shapes a hallucinating model produces (`hallucinate._off_by_one_constant`
# turns `ptr[3]` into `ptr[4]`): each must be a named rejection.
_HOSTILE = ["count1[82] == 0", "count1[1:5] == 0", "{0{count1}} == 0",
            "{count1, 1} != 0", "$past() == 0", "$countones() == 0"]


class TestHostileShapes:
    @pytest.mark.parametrize("snippet", _HOSTILE)
    def test_property_door_classifies(self, snippet):
        system = get_design("sync_counters").system()
        (record,) = validate_assertions(system, [snippet])
        assert record.status in ("unsupported", "syntax_error")
        assert record.error
        with pytest.raises(PropertyError) as exc:
            MonitorContext(system).add(snippet, name="p")
        assert exc.value.kind == "unsupported"

    @pytest.mark.parametrize("rhs", [
        "q[9]", "q[1:5]", "{0{q}}", "{q, 1}", "$past()", "$countones()"])
    def test_rtl_door_raises_with_a_line(self, rhs):
        with pytest.raises(ElaborationError) as exc:
            elaborate("module m(input clk, input [7:0] q,\n"
                      "         output [7:0] y);\n"
                      f"  assign y = {rhs};\nendmodule")
        assert exc.value.line == 3

    def test_kinds_classify_without_reading_the_message(self):
        system = get_design("sync_counters").system()
        statuses = [r.status for r in validate_assertions(system, [
            "count1 == nonexistent", "$bogus(count1)", "count1 ==",
            "##1 count1 == 0", "count1 == count2"])]
        assert statuses == ["unknown_signal", "unsupported", "syntax_error",
                            "syntax_error", "ok"]

    def test_off_by_one_index_is_a_resolve_rejection_not_a_crash(self):
        class OffByOne:
            model_name = "off-by-one"

            def complete(self, prompt):
                return LLMResponse(
                    text="property p; ptr[4] == 0; endproperty",
                    model="off-by-one", prompt_tokens=1,
                    completion_tokens=1, latency_s=0.0)

        session = VerificationSession(get_design("rr_arbiter"),
                                      client=OffByOne())
        result = session.lemma_flow(targets=["ptr_onehot"])
        assert [(o.stage, o.proven) for o in result.outcomes] == \
            [("resolve", False)]
        assert "out of range" in result.outcomes[0].detail
        assert (result.stats.assertions_emitted,
                result.stats.assertions_parsed,
                result.stats.assertions_resolved) == (1, 1, 0)

    def test_off_by_one_seed_is_dropped_by_pdr(self):
        design = get_design("rr_arbiter")
        ctx = MonitorContext(design.system())
        prop = ctx.add(design.property_spec("ptr_onehot").sva, name="t")
        result = ProofEngine(ctx.system).check(
            prop, "pdr", max_frames=6, seeds=("ptr[4] == 0",))
        assert result.status in (Status.PROVEN, Status.UNKNOWN)


class TestTaxonomy:
    def test_parsed_and_resolved_are_counted_apart(self):
        class Mixed:
            model_name = "mixed"

            def complete(self, prompt):
                return LLMResponse(
                    text="property a; count1 == ; endproperty\n"
                         "property b; count1 == nonexistent; endproperty\n"
                         "property c; count1[99]; endproperty\n"
                         "property d; count1 == count2; endproperty\n",
                    model="mixed", prompt_tokens=1, completion_tokens=1,
                    latency_s=0.0)

        session = VerificationSession(get_design("sync_counters"),
                                      client=Mixed())
        result = session.lemma_flow(targets=["equal_count"])
        stats = result.stats
        assert (stats.assertions_emitted, stats.assertions_parsed,
                stats.assertions_resolved, stats.assertions_proven) == \
            (4, 3, 1, 1)
        assert [o.stage for o in result.outcomes] == \
            ["parse", "resolve", "resolve", "lemma"]


if __name__ == "__main__":
    print(json.dumps(lowering_digests(), indent=1, sort_keys=True))
