"""Cross-design campaign scheduling.

A *campaign* verifies many designs in one run.  The scheduler flattens
the selected designs into one ``(design, property, strategy-race)`` job
pool, orders it longest-expected-first (the wall each property's last
verdict took, from the proof store's ledger; structural size when it
has none), and feeds the whole pool through one
:class:`~repro.mc.portfolio.PortfolioScheduler` so the global ``jobs``
limit governs every design at once — a short design's properties fill
worker slots while a long design's proofs grind.

Every job races the configured portfolio (:func:`race_specs`): by
default k-induction alone, its base case searching to the bound.  A
won race drops its still-queued slots and a cached one stops at its
first conclusive slot.  Every final verdict is one :class:`CampaignRow`,
upserted into the store's ledger, whose walls order the next
campaign's pool.

Execution is delegated through the :class:`Dispatcher` interface:
:class:`LocalDispatcher` streams the pool through one in-process
portfolio scheduler, while
:class:`~repro.dist.coordinator.Coordinator` fans it across
worker processes rendezvousing on any shared backend (a cache
directory or a ``repro-verify serve`` URL).  ``CampaignScheduler.run``
is the same code either way — every dispatcher returns rows, and the
campaign stores them and builds the report from them.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field, replace
from typing import Protocol, Sequence

from repro.campaign.report import CampaignReport, CampaignRow, WorkerStat
from repro.campaign.store import ProofStore, verdict_provenance
from repro.designs.base import Design, PropertySpec
from repro.mc.cache import CacheStats, ResultCache
from repro.mc.engine import EngineConfig, ProofEngine
from repro.mc.portfolio import (DEFAULT_PORTFOLIO, PortfolioScheduler,
                                VerifyTask)
from repro.ir.system import TransitionSystem
from repro.mc.property import SafetyProperty
from repro.mc.strategy import (resolve_strategy, spec_name,
                               strategy_option_names)
from repro.obs import journal as _journal
from repro.sva.compile import MonitorContext


@contextlib.contextmanager
def _phase(phases: dict[str, float], name: str, **fields):
    """One campaign phase, timed once: the reading lands in ``phases``
    and is the ``dur`` of the phase's span record."""
    with _journal.span(name, **fields) as sp:
        started = time.perf_counter()
        yield
        phases[name] = round(time.perf_counter() - started, 6)
        if sp is not None:
            sp.dur = phases[name]


def compile_design(design: Design) -> list[
        tuple[PropertySpec, SafetyProperty, TransitionSystem]]:
    """Compile one design into (spec, property, scoped system) triples.

    All of the design's properties are monitored into one shared system
    and each is then cone-of-influence scoped through the engine — the
    exact pipeline single-design runs use, so every layer (campaign
    scheduler, distributed workers, ``verify_all``) produces identical
    cache fingerprints for the same query.
    """
    ctx = MonitorContext(design.system())
    # Justice (liveness) specs have no SVA monitor and no engine that
    # could settle them; campaigns skip them rather than fabricating a
    # verdict.  `verify_all` reports them as UNKNOWN explicitly.
    compiled = [(spec, ctx.add(spec.sva, name=spec.name))
                for spec in design.properties if spec.kind != "justice"]
    engine = ProofEngine(ctx.system)
    return [(spec, prop, engine.scoped_system(prop))
            for spec, prop in compiled]


def race_specs(strategies: Sequence[str], max_k: int | None = None,
               bound: int | None = None) -> tuple[str, ...]:
    """One property's race: ``strategies`` with the caller's depth
    limits baked into each spec string.

    Each depth goes to every spec whose ``strategy.run`` accepts it —
    ``max_k`` to k-induction, ``bound`` to k-induction and the BMC
    family: ``race_specs(("k_induction", "bmc"), max_k=3, bound=9)`` is
    ``("k_induction(bound=9, max_k=3)", "bmc(bound=9)")``.  PDR
    measures depth in frames, not unrolling steps, so both pass it by.
    Options the spec already binds — written inline or baked into its
    registry name — win (``"bmc(bound=4)"`` keeps its 4).  Each spec is
    parsed by ``resolve_strategy``, so a malformed one raises
    ``StrategyError``.

    Campaign jobs and ``verify_all`` both build their per-property
    races here, which keeps the spec strings their attempt logs carry
    the same for the same query; cache keys canonicalize options, so
    they would agree regardless.
    """
    race = []
    for spec in strategies:
        strategy, bound_options = resolve_strategy(spec)
        accepted = strategy_option_names(strategy)
        merged = {k: v for k, v in (("max_k", max_k), ("bound", bound))
                  if v is not None and k in accepted}
        merged.update(bound_options)
        name = spec_name(spec)
        if merged:
            rendered = ", ".join(f"{k}={merged[k]!r}" for k in sorted(merged))
            name = f"{name}({rendered})"
        race.append(name)
    return tuple(race)


@dataclass
class CampaignJob:
    """One (design, property) unit of the flattened cross-design pool."""

    design: Design
    spec: PropertySpec
    prop: SafetyProperty
    task: VerifyTask
    expected_wall: float            # scheduling priority (bigger = first)
    order: int = 0                  # registry position, for stable reports

    @property
    def identity(self) -> tuple[str, str]:
        return (self.design.name, self.prop.name)


def for_design(row: CampaignRow, design: Design,
               spec: PropertySpec) -> CampaignRow:
    """``row`` with what only the design side knows filled in: its
    ``family``, the property's ``expect`` and the verdict's
    ``provenance`` (see :func:`verdict_provenance`)."""
    return replace(row, family=design.family, expect=spec.expect,
                   provenance=verdict_provenance(row.strategy,
                                                 row.from_cache))


@dataclass
class DispatchResult:
    """Everything one dispatch pass hands back to the campaign."""

    rows: dict[tuple[str, str], CampaignRow]   # by (design, property)
    cache: CacheStats = field(default_factory=CacheStats)
    workers: int = 0             # worker processes (0 = in-process)
    worker_stats: list[WorkerStat] = field(default_factory=list)


class Dispatcher(Protocol):
    """Executes a campaign job pool and returns one row per job.

    Each job's ``task.strategies`` is its race; implementations own the
    execution policy (in-process pool, queue and workers, ...).
    """

    def dispatch(self, pool: Sequence[CampaignJob]) -> DispatchResult:
        ...


class LocalDispatcher:
    """In-process dispatch through one shared :class:`PortfolioScheduler`.

    Every job's task carries its own race.  ``jobs`` is the global
    process-pool limit across every design in the pool; the cache is
    two-tier when backed by the proof store.
    """

    def __init__(self, jobs: int = 1, cache: ResultCache | None = None):
        self.jobs = jobs
        self.cache = cache if cache is not None else ResultCache()

    def dispatch(self, pool: Sequence[CampaignJob]) -> DispatchResult:
        stats_before = replace(self.cache.stats)
        scheduler = PortfolioScheduler(jobs=self.jobs, cache=self.cache)
        rows = {(o.tag, o.property_name): CampaignRow.from_portfolio(o)
                for o in scheduler.stream([j.task for j in pool])}
        return DispatchResult(rows=rows,
                              cache=self.cache.stats.since(stats_before))


class CampaignScheduler:
    """Runs one verification campaign over many designs (see module doc)."""

    def __init__(self, designs: Sequence[Design], store: ProofStore,
                 jobs: int = 1,
                 strategies: Sequence[str] | None = None,
                 max_k: int | None = None,
                 bmc_bound: int | None = None,
                 cache: ResultCache | None = None,
                 dispatcher: Dispatcher | None = None):
        if not designs:
            raise ValueError("a campaign needs at least one design")
        self.designs = list(designs)
        self.store = store
        self.jobs = jobs
        self.base = tuple(strategies or DEFAULT_PORTFOLIO)
        for spec in self.base:
            resolve_strategy(spec)  # fail fast on bad specs
        self.max_k = max_k
        self.bmc_bound = bmc_bound if bmc_bound is not None \
            else EngineConfig().bmc_bound
        self.cache = cache if cache is not None \
            else ResultCache(backing=store)
        # Local in-process dispatch unless a distributed (or test)
        # dispatcher is plugged in — one interface either way.
        self.dispatcher: Dispatcher = dispatcher if dispatcher is not None \
            else LocalDispatcher(jobs=jobs, cache=self.cache)

    # ------------------------------------------------------------------

    def build_jobs(self) -> list[CampaignJob]:
        """The flattened job pool, ordered longest-expected-first."""
        walls = self.store.expected_walls()   # one read for the pool
        pool: list[CampaignJob] = []
        for design in self.designs:
            # compile_design scopes through the engine so campaign jobs
            # fingerprint — and therefore cache-key — exactly like
            # single-design runs (and like distributed workers, which
            # recompile from the same registry entry).
            for spec, prop, scoped in compile_design(design):
                depth = self.max_k if self.max_k is not None else spec.max_k
                task = VerifyTask(scoped, prop, tag=design.name,
                                  strategies=race_specs(
                                      self.base, max_k=depth,
                                      bound=self.bmc_bound))
                # A job with no ledger row is prioritised by its
                # structural size.
                structural = float(
                    (len(scoped.states) + len(scoped.inputs)) * depth)
                pool.append(CampaignJob(
                    design=design, spec=spec, prop=prop, task=task,
                    expected_wall=walls.get((design.name, spec.name),
                                            structural),
                    order=len(pool)))
        # Longest first: with a ledger row, seconds; cold jobs use a
        # large structural proxy, which also (deliberately) schedules
        # the unknown ahead of the known.
        pool.sort(key=lambda j: -j.expected_wall)
        return pool

    # ------------------------------------------------------------------

    def run(self) -> CampaignReport:
        start = time.perf_counter()
        phases: dict[str, float] = {}
        with _journal.span("campaign") as root:
            _journal.emit("campaign_start",
                          designs=[d.name for d in self.designs],
                          jobs=self.jobs)
            with _phase(phases, "compile"):
                pool = self.build_jobs()

            # The dispatcher executes the pool (in-process or across
            # worker processes); the campaign only records and reports
            # what came back.
            with _phase(phases, "dispatch", jobs=len(pool)):
                result = self.dispatcher.dispatch(pool)
            # "solve" is the in-job portion of "dispatch" (sum of
            # non-cached job wall times — across workers it can exceed
            # the dispatch wall when jobs ran in parallel).
            phases["solve"] = round(sum(
                row.wall_seconds for row in result.rows.values()
                if not row.from_cache), 6)

            with _phase(phases, "store"):
                rows = [for_design(result.rows[job.identity], job.design,
                                   job.spec)
                        for job in sorted(pool, key=lambda j: j.order)]
                # One transaction, one wire call: the campaign's rows
                # land together, whichever dispatcher ran the jobs.
                self.store.record_outcomes(rows)
            if root is not None:
                root.fields.update(
                    properties=len(rows),
                    mismatches=sum(1 for r in rows if r.mismatch))

        journal = _journal.active()
        return CampaignReport(
            designs=[d.name for d in self.designs],
            rows=rows,
            wall_seconds=time.perf_counter() - start,
            jobs=self.jobs,
            cache=result.cache,
            store_results=len(self.store),
            workers=result.workers,
            worker_stats=result.worker_stats,
            phase_seconds=phases,
            trace_id=journal.trace_id if journal is not None and
            root is not None else "")
