"""Candidate-lemma mining: the pool of helper assertions a design suggests.

Two engines, neither of which trusts what it emits:

* :mod:`static_engine <repro.mine.static_engine>` — reads the elaborated
  design and the specification text: structural templates (symmetric
  registers, saturation bounds, one-hot state, shadow registers,
  nonzero reset values) plus relation mining over short simulations,
  with spec-text hints boosting matching candidates;
* :mod:`cex_engine <repro.mine.cex_engine>` — reorders that pool against
  an induction-step counterexample's pre-state, so candidates that rule
  the unreachable pre-state out come first.

Both emit :class:`~repro.mine.candidates.Candidate` records carrying SVA
text, and :func:`~repro.mine.candidates.state_predicate` is the one
place such a body becomes a single-state predicate.  PDR's frame
seeding (:mod:`repro.mc.pdr.seed`) and the simulated LLM
(:mod:`repro.genai.client`) both draw from this pool; every candidate
still has to pass admission, screening or an inductive proof before
anything assumes it.
"""
