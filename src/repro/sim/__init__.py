"""Cycle-accurate word-level simulation of transition systems."""
