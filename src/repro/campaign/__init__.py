"""The campaign subsystem: regression-scale verification over many designs.

Layering (registry -> scheduler -> portfolio -> two-tier cache -> report):

* :class:`~repro.campaign.store.ProofStore` — persistent SQLite proof
  store; plugs into :class:`~repro.mc.cache.ResultCache` as its disk
  tier and keeps one :class:`~repro.campaign.report.CampaignRow` per
  property in its ledger, whose walls order the next campaign's pool.
  One implementation of the :class:`~repro.dist.backend.StoreBackend`
  interface — campaigns can point the same cache tier at a
  ``repro-verify serve`` instance on another machine instead
  (``--backend http://HOST:PORT``).
* :class:`~repro.campaign.scheduler.CampaignScheduler` — flattens many
  designs into one job pool and drives the existing
  :class:`~repro.mc.portfolio.PortfolioScheduler` under a global job
  limit.
* :class:`~repro.campaign.report.CampaignReport` — JSON + text summary
  (verdict counts, cache hit tiers, provenance, solver effort).
"""

from repro.campaign.report import CampaignReport, CampaignRow, WorkerStat
from repro.campaign.scheduler import (CampaignJob, CampaignScheduler,
                                      Dispatcher, DispatchResult,
                                      LocalDispatcher, compile_design,
                                      for_design, race_specs)
from repro.campaign.store import ProofStore, StrategyStats

__all__ = [
    "CampaignJob",
    "CampaignReport",
    "CampaignRow",
    "CampaignScheduler",
    "DispatchResult",
    "Dispatcher",
    "LocalDispatcher",
    "ProofStore",
    "StrategyStats",
    "WorkerStat",
    "compile_design",
    "for_design",
    "race_specs",
]
