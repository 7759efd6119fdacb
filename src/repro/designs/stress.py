"""Multi-property stress design for the portfolio verification service.

``counter_bank`` packs several independent verification obligations into
one module — three enable-gated synchronized counter pairs at staggered
widths, a rotating one-hot token ring, and a saturating event counter —
so a batch run has genuinely parallel work: every property
cone-of-influence reduces to its own disjoint sub-design, the pair
proofs are deliberately SAT-heavy (cost roughly doubles per extra bit of
width), and the portfolio scheduler can fan the checks across worker
processes.  One property is intentionally violated (the ring reaches
``4'b1000``) so batch runs always exercise the refuting side (the
base case or a BMC racer), not just the induction step.
"""

from __future__ import annotations

from repro.designs.base import Design, PropertySpec

COUNTER_BANK_RTL = """\
module counter_bank (
  input clk, rst,
  input en,
  output logic [8:0]  a1, a2,
  output logic [9:0]  b1, b2,
  output logic [10:0] c1, c2,
  output logic [3:0]  ring,
  output logic [7:0]  sat
);
  always_ff @(posedge clk) begin
    if (rst) begin
      a1 <= '0;
      a2 <= '0;
      b1 <= '0;
      b2 <= '0;
      c1 <= '0;
      c2 <= '0;
      ring <= 4'b0001;
      sat <= 8'h00;
    end else begin
      if (en) begin
        a1 <= a1 + 1'b1;
        a2 <= a2 + 1'b1;
        b1 <= b1 + 1'b1;
        b2 <= b2 + 1'b1;
        c1 <= c1 + 1'b1;
        c2 <= c2 + 1'b1;
      end
      ring <= {ring[2:0], ring[3]};
      sat <= (sat == 8'hf0) ? sat : sat + 1'b1;
    end
  end
endmodule
"""

COUNTER_BANK_SPEC = """\
# Counter bank (portfolio stress design)

A bank of independent counting structures sharing one clock and reset:

* `a1`/`a2`, `b1`/`b2`, `c1`/`c2` — counter pairs of width 9, 10, and
  11 bits that increment in lock-step when `en` is high; each pair is
  always equal.
* `ring` — a 4-bit one-hot token ring rotating left each cycle; exactly
  one bit is ever set.
* `sat` — an 8-bit event counter saturating at 0xF0.

The structures do not interact: each property's cone of influence is a
small, disjoint slice of the module, which is exactly what a batch
verification service should exploit.
"""

counter_bank = Design(
    name="counter_bank",
    family="stress",
    rtl=COUNTER_BANK_RTL,
    spec=COUNTER_BANK_SPEC,
    properties=[
        PropertySpec(name="a_pair_equal", sva="a1 == a2",
                     expect="proven", max_k=2),
        PropertySpec(name="b_pair_equal", sva="b1 == b2",
                     expect="proven", max_k=2),
        PropertySpec(name="c_pair_equal", sva="c1 == c2",
                     expect="proven", max_k=2),
        PropertySpec(name="ring_onehot", sva="$onehot(ring)",
                     expect="proven", max_k=2),
        PropertySpec(name="sat_bound", sva="sat <= 8'hf0",
                     expect="proven", max_k=2),
        PropertySpec(name="ring_no_msb", sva="ring != 4'b1000",
                     expect="violated", max_k=4),
    ],
    golden_helpers=[("a_equal_helper", "a1 == a2")],
    notes="Batch/portfolio stress workload: disjoint cones, SAT-heavy "
          "pair proofs, one seeded violation so the refuting side always "
          "has work.")
