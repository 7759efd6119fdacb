"""Counterexample traces and ASCII waveform rendering."""
