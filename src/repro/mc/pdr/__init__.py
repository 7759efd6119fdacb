"""Property-directed reachability (IC3/PDR).

The third proof engine next to BMC and k-induction: instead of
unrolling, it maintains inductive frames and blocks counterexamples to
induction one cube at a time (:mod:`repro.mc.pdr.engine`).  Registered
with the strategy registry as ``pdr`` and ``pdr_seeded`` (frames
pre-seeded with mined candidate lemmas — see
:mod:`repro.mc.pdr.seed`), so every scheduling layer — portfolio
races, campaigns, distributed workers, and the CLI
— gains the engine through the registry with no engine-specific code.
"""
