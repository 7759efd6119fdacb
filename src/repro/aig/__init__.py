"""Bit-level lowering: and-inverter graphs, word-to-bit blasting, CNF."""
