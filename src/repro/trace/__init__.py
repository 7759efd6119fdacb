"""Counterexample traces, VCD export, and ASCII waveform rendering."""
