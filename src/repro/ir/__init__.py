"""Word-level intermediate representation.

The IR is a hash-consed DAG of fixed-width bit-vector expressions
(:mod:`repro.ir.expr`) plus a synchronous transition-system container
(:mod:`repro.ir.system`).  Booleans are 1-bit vectors.  All downstream
subsystems — the simulator, the bit-blaster, the model checker, the SVA
compiler — consume this IR, so its evaluation semantics (documented per
operator in :mod:`repro.ir.expr`) are the single source of truth for the
whole stack.
"""
