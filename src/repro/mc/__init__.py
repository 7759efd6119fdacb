"""Model checking: BMC, k-induction, and IC3/PDR over the IR, plus the
portfolio verification service (strategy registry, parallel scheduler,
result cache) that every higher layer dispatches through."""

from repro.mc.property import SafetyProperty
from repro.mc.result import CheckResult, ProofStats, Status
from repro.mc.bmc import bmc
from repro.mc.kinduction import KInductionOptions, k_induction
from repro.mc.pdr import PdrOptions, pdr
from repro.mc.cache import CacheBacking, CacheStats, ResultCache, run_cached
from repro.mc.certcheck import (CertificateReport, ObligationFailure,
                                check_certificate)
from repro.mc.strategy import (CheckTask, Strategy, StrategyError,
                               get_strategy, register_strategy,
                               resolve_strategy, run_check_task,
                               strategy_names, strategy_option_names)
from repro.mc.portfolio import (DEFAULT_PORTFOLIO, PortfolioOutcome,
                                PortfolioScheduler, VerifyTask)
from repro.mc.engine import EngineConfig, ProofEngine

__all__ = [
    "CacheBacking",
    "CacheStats",
    "CertificateReport",
    "CheckResult",
    "CheckTask",
    "ObligationFailure",
    "DEFAULT_PORTFOLIO",
    "EngineConfig",
    "KInductionOptions",
    "PdrOptions",
    "PortfolioOutcome",
    "PortfolioScheduler",
    "ProofEngine",
    "ProofStats",
    "ResultCache",
    "SafetyProperty",
    "Status",
    "Strategy",
    "StrategyError",
    "VerifyTask",
    "bmc",
    "check_certificate",
    "get_strategy",
    "k_induction",
    "pdr",
    "register_strategy",
    "resolve_strategy",
    "run_cached",
    "run_check_task",
    "strategy_names",
    "strategy_option_names",
]
