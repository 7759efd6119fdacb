"""From-scratch CDCL SAT solver with a MiniSat-style interface."""
