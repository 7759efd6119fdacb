"""Differential-testing subsystem: generate, oracle, shrink.

The qa layer turns the fixed test registry into a generator of
adversarial evidence: seeded random designs (:mod:`repro.qa.generate`)
are raced across every registered engine and cross-checked against
independent trace/certificate checkers (:mod:`repro.qa.oracle`), and
any disagreement is delta-debugged down to a replayable repro bundle
(:mod:`repro.qa.shrink`).  Surfaced on the CLI as ``repro-verify
fuzz``.
"""

from repro.qa.generate import (GeneratedDesign, GeneratorConfig, Mutation,
                               MUTATIONS, mutate, mutated_design,
                               random_design)
from repro.qa.oracle import (DEFAULT_ORACLE_STRATEGIES, DifferentialOracle,
                             Disagreement, DisagreementRecord, EngineVerdict,
                             FuzzReport, OracleReport, fuzz_designs,
                             replay_trace, run_fuzz)
from repro.qa.shrink import (ShrinkResult, bundle_aag, replay_bundle,
                             shrink_design, write_repro_bundle)

__all__ = [
    "DEFAULT_ORACLE_STRATEGIES",
    "DifferentialOracle",
    "Disagreement",
    "DisagreementRecord",
    "EngineVerdict",
    "FuzzReport",
    "GeneratedDesign",
    "GeneratorConfig",
    "MUTATIONS",
    "Mutation",
    "OracleReport",
    "ShrinkResult",
    "bundle_aag",
    "fuzz_designs",
    "mutate",
    "mutated_design",
    "random_design",
    "replay_bundle",
    "replay_trace",
    "run_fuzz",
    "shrink_design",
    "write_repro_bundle",
]
