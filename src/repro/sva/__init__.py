"""SVA property frontend.

Parses a practical subset of SystemVerilog Assertions and compiles each
property into a safety monitor over the design's transition system:

* boolean layer: the RTL's own expression semantics (one lowering,
  :mod:`repro.hdl.lower`) over design signals, plus ``$past(e[, n])``,
  ``$stable``, ``$changed``, ``$rose``, ``$fell``;
* sequence layer: bounded concatenation with ``##N`` delays;
* property layer: overlapping ``|->`` and non-overlapping ``|=>``
  implication, ``disable iff (expr)``, bare boolean invariants.

Compilation adds monitor registers (delay chains for ``$past`` and for
sequence matching) to a clone of the design and returns a
:class:`~repro.mc.property.SafetyProperty`.  A :class:`MonitorContext`
accumulates several properties over one shared clone so that proven
helpers can be assumed while proving targets — the mechanism behind the
paper's lemma flow.
"""
