"""Standard-format interchange: AIGER and BTOR2.

Readers normalize foreign files into canonical in-memory models;
writers serialize the repro IR for external model checkers and logic
tools.  :mod:`repro.formats.designio` lifts both directions to the
Design level so imported files plug into every verification layer.
"""
