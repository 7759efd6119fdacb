"""HDL frontend tests: lexer, parser, elaborator."""

import pytest

from repro.errors import ElaborationError, LexError, ParseError
from repro.hdl.elaborate import elaborate
from repro.hdl.lexer import tokenize
from repro.hdl.parser import parse_module, parse_source
from repro.ir import expr as E
from repro.sim.simulator import Simulator


class TestLexer:
    def test_identifiers_and_keywords(self):
        tokens = tokenize("module foo_1; endmodule")
        kinds = [(t.kind, t.text) for t in tokens[:-1]]
        assert kinds == [("keyword", "module"), ("id", "foo_1"),
                         ("op", ";"), ("keyword", "endmodule")]

    @pytest.mark.parametrize("text,value,width", [
        ("32'b0", 0, 32),
        ("8'hff", 255, 8),
        ("4'd12", 12, 4),
        ("12'habc", 0xABC, 12),
        ("8'b1010_1010", 0xAA, 8),
        ("123", 123, None),
        ("1_000", 1000, None),
    ])
    def test_numbers(self, text, value, width):
        token = tokenize(text)[0]
        assert token.kind == "number"
        assert token.value == value
        assert token.width == width

    def test_x_z_collapse_to_zero(self):
        assert tokenize("4'b1x0z")[0].value == 0b1000

    def test_comments_skipped(self):
        tokens = tokenize("a // line\n/* block\nstill */ b")
        assert [t.text for t in tokens[:-1]] == ["a", "b"]

    def test_multi_char_operators(self):
        tokens = tokenize("|-> |=> ## <= == >>> ++")
        assert [t.text for t in tokens[:-1]] == \
            ["|->", "|=>", "##", "<=", "==", ">>>", "++"]

    def test_system_identifiers(self):
        token = tokenize("$countones")[0]
        assert token.kind == "id" and token.text == "$countones"

    def test_bad_character(self):
        with pytest.raises(LexError):
            tokenize("module `bad")

    def test_unterminated_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")


class TestParser:
    def test_paper_listing_parses(self):
        module = parse_module("""
            module sync_counters (input clk, rst,
                                  output logic [31:0] count1, count2);
              always @(posedge clk or posedge rst) begin
                if (rst) begin
                  count1 <= 32'b0;
                  count2 <= 32'b0;
                end else begin
                  count1++;
                  count2++;
                end
              end
            endmodule
        """)
        assert module.name == "sync_counters"
        assert [p.name for p in module.ports] == \
            ["clk", "rst", "count1", "count2"]
        assert len(module.always_ffs) == 1
        sens = module.always_ffs[0].sensitivity
        assert [(s.edge, s.signal) for s in sens] == \
            [("posedge", "clk"), ("posedge", "rst")]

    def test_multiple_modules(self):
        modules = parse_source(
            "module a; endmodule module b; endmodule")
        assert [m.name for m in modules] == ["a", "b"]

    def test_parameters_and_case(self):
        module = parse_module("""
            module m #(parameter W = 4, DEPTH = 2*W) (input clk);
              localparam TOP = W - 1;
              logic [W-1:0] x;
              always_comb begin
                case (x)
                  4'd0, 4'd1: x = 0;
                  default: x = 1;
                endcase
              end
            endmodule
        """)
        assert [p.name for p in module.params] == ["W", "DEPTH", "TOP"]
        assert module.params[2].local

    def test_instance_with_overrides(self):
        module = parse_module("""
            module top (input clk);
              child #(.W(8)) u0 (.clk(clk), .q(sig));
            endmodule
        """)
        inst = module.instances[0]
        assert inst.module == "child" and inst.name == "u0"
        assert set(inst.connections) == {"clk", "q"}
        assert "W" in inst.param_overrides

    def test_expression_precedence(self):
        module = parse_module("""
            module m (input [7:0] a, b, output [7:0] y);
              assign y = a + b * 2 | a >> 1;
            endmodule
        """)
        top = module.assigns[0].value
        assert top.op == "|"  # lowest precedence of those used... bitwise-or

    def test_ternary_and_concat(self):
        module = parse_module("""
            module m (input c, input [3:0] a, output [7:0] y);
              assign y = c ? {a, a} : {2{a}};
            endmodule
        """)
        assert module.assigns[0].value.cond is not None

    def test_initial_block_rejected(self):
        with pytest.raises(ParseError):
            parse_module("module m; initial x = 0; endmodule")

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_module("module m (input a) endmodule")

    def test_error_carries_location(self):
        try:
            parse_module("module m;\n  assign = 4;\nendmodule")
        except ParseError as exc:
            assert "line 2" in str(exc)
        else:
            pytest.fail("expected ParseError")


class TestElaborator:
    def test_paper_listing(self):
        system = elaborate("""
            module sync_counters (input clk, rst,
                                  output logic [7:0] count1, count2);
              always @(posedge clk or posedge rst) begin
                if (rst) begin
                  count1 <= 8'b0;
                  count2 <= 8'b0;
                end else begin
                  count1++;
                  count2++;
                end
              end
            endmodule
        """)
        assert set(system.states) == {"count1", "count2"}
        assert system.init["count1"].value == 0
        assert len(system.constraints) == 1  # rst held inactive

    def test_parameters_resolve(self):
        system = elaborate("""
            module c #(parameter W = 4) (input clk, rst, output logic [W-1:0] q);
              always_ff @(posedge clk) begin
                if (rst) q <= '0; else q <= q + 1'b1;
              end
            endmodule
        """, params={"W": 6})
        assert system.states["q"].width == 6

    def test_case_statement_semantics(self):
        system = elaborate("""
            module m (input clk, rst, input [1:0] sel, output logic [3:0] q);
              always_ff @(posedge clk) begin
                if (rst) q <= 4'd0;
                else case (sel)
                  2'd0: q <= 4'd1;
                  2'd1, 2'd2: q <= 4'd7;
                  default: q <= 4'd15;
                endcase
              end
            endmodule
        """)
        sim = Simulator(system, check_constraints=False)
        sim.reset()
        for sel, expected in [(0, 1), (1, 7), (2, 7), (3, 15)]:
            sim.step({"rst": 0, "sel": sel})
            assert sim.state_values["q"] == expected

    def test_blocking_sequencing_in_comb(self):
        system = elaborate("""
            module m (input [3:0] a, output [3:0] y);
              logic [3:0] t;
              always_comb begin
                t = a + 4'd1;
                t = t + 4'd1;
              end
              assign y = t;
            endmodule
        """)
        got = E.evaluate(system.resolve_defines(system.lookup("y")),
                         {"a": 5})
        assert got == 7

    def test_latch_detection(self):
        with pytest.raises(ElaborationError, match="latch"):
            elaborate("""
                module m (input c, input [3:0] a, output logic [3:0] y);
                  always_comb begin
                    if (c) y = a;
                  end
                endmodule
            """)

    def test_default_before_if_is_fine(self):
        system = elaborate("""
            module m (input c, input [3:0] a, output logic [3:0] y);
              always_comb begin
                y = 4'd0;
                if (c) y = a;
              end
            endmodule
        """)
        resolved = system.resolve_defines(system.lookup("y"))
        assert E.evaluate(resolved, {"c": 0, "a": 9}) == 0
        assert E.evaluate(resolved, {"c": 1, "a": 9}) == 9

    def test_multiple_drivers_rejected(self):
        with pytest.raises(ElaborationError, match="multiple drivers"):
            elaborate("""
                module m (input a, output y);
                  assign y = a;
                  assign y = !a;
                endmodule
            """)

    def test_combinational_loop_rejected(self):
        with pytest.raises(ElaborationError, match="loop"):
            elaborate("""
                module m (output [3:0] y);
                  assign y = y + 4'd1;
                endmodule
            """)

    def test_clock_as_data_rejected(self):
        with pytest.raises(ElaborationError, match="clock"):
            elaborate("""
                module m (input clk, output logic q);
                  always_ff @(posedge clk) q <= clk;
                endmodule
            """)

    def test_part_select_assignment(self):
        system = elaborate("""
            module m (input clk, rst, input [3:0] nib, output logic [7:0] q);
              always_ff @(posedge clk) begin
                if (rst) q <= 8'h00;
                else begin
                  q[3:0] <= nib;
                  q[7] <= 1'b1;
                end
              end
            endmodule
        """)
        sim = Simulator(system, check_constraints=False)
        sim.reset()
        sim.step({"rst": 0, "nib": 0xA})
        assert sim.state_values["q"] == 0x8A

    def test_memory_roundtrip(self):
        system = elaborate("""
            module m (input clk, rst, input we, input [1:0] a,
                      input [7:0] d, output [7:0] q);
              logic [7:0] mem [0:3];
              always_ff @(posedge clk) begin
                if (rst) begin
                  mem[0] <= 8'h0; mem[1] <= 8'h0;
                  mem[2] <= 8'h0; mem[3] <= 8'h0;
                end else if (we) mem[a] <= d;
              end
              assign q = mem[a];
            endmodule
        """)
        assert system.states["mem"].width == 32
        sim = Simulator(system, check_constraints=False)
        sim.reset()
        sim.step({"rst": 0, "we": 1, "a": 3, "d": 0x5A})
        snap = sim.step({"rst": 0, "we": 0, "a": 3, "d": 0})
        assert snap["q"] == 0x5A

    def test_hierarchy_flattening(self):
        system = elaborate("""
            module leaf (input clk, rst, input en, output logic [3:0] q);
              always_ff @(posedge clk) begin
                if (rst) q <= '0;
                else if (en) q <= q + 1'b1;
              end
            endmodule
            module top (input clk, rst, output [3:0] a, b);
              leaf u0 (.clk(clk), .rst(rst), .en(1'b1), .q(a));
              leaf u1 (.clk(clk), .rst(rst), .en(1'b0), .q(b));
            endmodule
        """, top="top")
        assert set(system.states) == {"u0.q", "u1.q"}
        sim = Simulator(system, check_constraints=False)
        sim.reset()
        sim.step({"rst": 0})
        sim.step({"rst": 0})
        assert sim.state_values["u0.q"] == 2
        assert sim.state_values["u1.q"] == 0

    def test_active_low_reset(self):
        system = elaborate("""
            module m (input clk, rst_n, output logic [3:0] q);
              always_ff @(posedge clk or negedge rst_n) begin
                if (!rst_n) q <= 4'd5;
                else q <= q + 1'b1;
              end
            endmodule
        """)
        assert system.init["q"].value == 5
        # Constraint holds rst_n at 1 (inactive).
        assert E.evaluate(system.constraints[0], {"rst_n": 1}) == 1
        assert E.evaluate(system.constraints[0], {"rst_n": 0}) == 0

    def test_declaration_initializer_register(self):
        system = elaborate("""
            module m (input clk, output logic [3:0] q);
              logic [3:0] x = 4'd9;
              always_ff @(posedge clk) x <= x + 1'b1;
              assign q = x;
            endmodule
        """)
        assert system.init["x"].value == 9

    def test_wire_initializer_is_continuous_assign(self):
        system = elaborate("""
            module m (input [3:0] a, output [3:0] y);
              wire [3:0] doubled = a + a;
              assign y = doubled;
            endmodule
        """)
        resolved = system.resolve_defines(system.lookup("y"))
        assert E.evaluate(resolved, {"a": 3}) == 6

    def test_undriven_signal_is_cut_point(self):
        system = elaborate("""
            module m (input clk, output [3:0] y);
              logic [3:0] free_sig;
              assign y = free_sig;
            endmodule
        """)
        assert "free_sig" in system.inputs

    def test_unknown_module_rejected(self):
        with pytest.raises(ElaborationError, match="unknown module"):
            elaborate("module top (input clk); ghost u0 (.x(clk)); "
                      "endmodule")

    def test_dynamic_bit_select_read(self):
        system = elaborate("""
            module m (input [7:0] v, input [2:0] i, output y);
              assign y = v[i];
            endmodule
        """)
        resolved = system.resolve_defines(system.lookup("y"))
        for v, i in [(0b10101010, 1), (0b10101010, 2), (0xFF, 7)]:
            assert E.evaluate(resolved, {"v": v, "i": i}) == (v >> i) & 1

    def test_reduction_operators(self):
        system = elaborate("""
            module m (input [3:0] v, output a, o, x);
              assign a = &v;
              assign o = |v;
              assign x = ^v;
            endmodule
        """)
        env = {"v": 0b1011}
        assert E.evaluate(system.resolve_defines(system.lookup("a")), env) == 0
        assert E.evaluate(system.resolve_defines(system.lookup("o")), env) == 1
        assert E.evaluate(system.resolve_defines(system.lookup("x")), env) == 1

    def test_signed_division_rejected(self):
        with pytest.raises(ElaborationError, match="division"):
            elaborate("""
                module m (input [3:0] a, b, output [3:0] y);
                  assign y = a / b;
                endmodule
            """)

    def test_unary_operators_are_elaboration_time_constants(self):
        """`-N`, `!N`, `~N` in a parameter value (the constant evaluator
        once built its unary result with an eagerly-raising default)."""
        system = elaborate("""
            module m (input [7:0] a, output [7:0] y, z, w);
              parameter N = 3;
              parameter M = -N + 8;
              localparam Z = !N;
              localparam I = ~N + 5;
              assign y = a + M;
              assign z = a + Z;
              assign w = a + I;
            endmodule
        """)
        env = {"a": 10}
        assert E.evaluate(system.lookup("y"), env) == 15
        assert E.evaluate(system.lookup("z"), env) == 10
        assert E.evaluate(system.lookup("w"), env) == 11

    def test_clog2_means_the_same_in_a_signal_expression(self):
        """`$clog2(DEPTH)` is 4 for DEPTH = 16 — in a localparam and in
        a right-hand side (which once read it as DEPTH itself)."""
        system = elaborate("""
            module m (input [7:0] a, output [7:0] y, z);
              parameter DEPTH = 16;
              localparam AW = $clog2(DEPTH);
              assign y = a + $clog2(DEPTH);
              assign z = a + AW;
            endmodule
        """)
        assert system.lookup("y") is system.lookup("z")
        assert E.evaluate(system.lookup("y"), {"a": 1}) == 5
