"""HDL frontend: a synthesizable SystemVerilog subset.

The pipeline is ``source text -> tokens -> module AST -> transition
system``:

* :mod:`repro.hdl.lexer` — tokenizer (identifiers, based literals,
  operators, comments);
* :mod:`repro.hdl.parser` — recursive-descent parser for modules,
  declarations, ``always_ff``/``always_comb``/``assign``, statements and
  expressions;
* :mod:`repro.hdl.lower` — the one lowering of an expression AST into
  the bit-vector IR, shared with the SVA property compiler;
* :mod:`repro.hdl.elaborate` — elaboration: parameter evaluation, width
  inference, symbolic execution of processes, reset extraction, hierarchy
  flattening, unpacked-array lowering — producing a
  :class:`~repro.ir.system.TransitionSystem`.

Supported constructs are documented in the parser; everything outside the
subset raises a precise :class:`~repro.errors.HdlError` with the source
location.
"""
