"""High-level verification session: the library's main entry point.

Wraps a design bundle with both flows and direct proving, so examples,
the CLI, and the benchmarks all share one façade:

>>> from repro.designs import get_design
>>> from repro.flow import VerificationSession
>>> session = VerificationSession(get_design("sync_counters"),
...                               model="gpt-4o")
>>> result = session.repair("equal_count")
>>> result.converged
True

A session owns one :class:`~repro.mc.cache.ResultCache` shared by every
check it triggers — direct proofs, portfolio batches, and both GenAI
flows — so any repeated query (Houdini rounds, repair retries, repeated
CLI invocations on one session) is answered from cache.

Handing the session a ``backend`` (a directory, ``sqlite:DIR`` or a
``repro-verify serve`` URL) makes that cache two-tier: single-design
runs then read and write the same persistent proof store campaigns use,
and their verdicts land in its ledger — on this machine or on another
one.  :func:`run_campaign` is the cross-design entry point the
CLI's ``campaign`` command drives.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.campaign import (CampaignReport, CampaignRow, CampaignScheduler,
                            ProofStore, compile_design, for_design,
                            race_specs)
from repro.designs.base import Design
from repro.designs.registry import select_designs
from repro.flow.lemma_flow import LemmaFlowResult, LemmaGenerationFlow
from repro.flow.repair_flow import InductionRepairFlow, RepairFlowResult
from repro.genai.client import LLMClient, SimulatedLLM
from repro.mc.cache import CacheStats, ResultCache
from repro.mc.engine import EngineConfig, ProofEngine
from repro.mc.portfolio import (DEFAULT_PORTFOLIO, PortfolioOutcome,
                                PortfolioScheduler, VerifyTask)
from repro.mc.result import CheckResult, Status
from repro.obs import journal as _journal
from repro.sva.compile import MonitorContext


@dataclass
class BatchVerifyResult:
    """Outcome of one :meth:`VerificationSession.verify_all` batch."""

    design: str
    outcomes: list[PortfolioOutcome]    # completion order
    wall_seconds: float
    jobs: int
    cache_stats: CacheStats = field(default_factory=CacheStats)

    def result_for(self, property_name: str) -> CheckResult:
        for outcome in self.outcomes:
            if outcome.property_name == property_name:
                return outcome.result
        raise KeyError(property_name)

    @property
    def any_violated(self) -> bool:
        return any(o.status is Status.VIOLATED for o in self.outcomes)

    def summary_lines(self) -> list[str]:
        lines = [f"verified {len(self.outcomes)} properties of "
                 f"{self.design} in {self.wall_seconds:.3f}s "
                 f"(jobs={self.jobs})"]
        lines += ["  " + o.one_line() for o in self.outcomes]
        lines.append("  " + self.cache_stats.one_line())
        return lines


class VerificationSession:
    """One design + one model + shared engine configuration + one cache.

    ``backend`` (a directory, ``sqlite:DIR`` or ``http://HOST:PORT``)
    plugs the campaign subsystem's persistent proof store in as the
    cache's disk tier, so a single-design CLI run warm-starts from — and
    contributes to — the same results campaigns use, wherever that
    store lives.
    """

    def __init__(self, design: Design,
                 model: str = "gpt-4o",
                 client: LLMClient | None = None,
                 seed: int = 0,
                 engine_config: EngineConfig | None = None,
                 backend: str | Path | None = None):
        self.design = design
        self.client: LLMClient = client if client is not None \
            else SimulatedLLM(model, seed=seed)
        self.engine_config = engine_config or EngineConfig()
        self.store = None
        if backend is not None:
            from repro.dist.backend import open_store
            self.store = open_store(backend)
        self.cache = ResultCache(backing=self.store)

    # ------------------------------------------------------------------

    def _compile(self, property_names: list[str]
                 ) -> tuple[MonitorContext, list]:
        ctx = MonitorContext(self.design.system())
        props = []
        for name in property_names:
            spec = self.design.property_spec(name)
            props.append(ctx.add(spec.sva, name=spec.name))
        return ctx, props

    def _justice_unknown(self, property_name: str) -> CheckResult:
        return CheckResult(
            property_name, Status.UNKNOWN,
            detail="justice (liveness) property: no liveness engine is "
                   "registered, so the verdict is UNKNOWN by "
                   "construction")

    def _engine(self, ctx: MonitorContext) -> ProofEngine:
        return ProofEngine(ctx.system, self.engine_config,
                           cache=self.cache)

    def prove_direct(self, property_name: str,
                     max_k: int | None = None) -> CheckResult:
        """Plain k-induction with no GenAI involvement (the baseline)."""
        spec = self.design.property_spec(property_name)
        if spec.kind == "justice":
            return self._justice_unknown(property_name)
        ctx, (prop,) = self._compile([property_name])
        return self._engine(ctx).prove(
            prop, max_k=max_k if max_k is not None else spec.max_k)

    def bmc(self, property_name: str, bound: int = 20) -> CheckResult:
        """Bounded counterexample search (bug hunting)."""
        if self.design.property_spec(property_name).kind == "justice":
            return self._justice_unknown(property_name)
        ctx, (prop,) = self._compile([property_name])
        return self._engine(ctx).check_bmc(prop, bound=bound)

    def verify_all(self, properties: list[str] | None = None,
                   jobs: int = 1,
                   strategies: list[str] | None = None,
                   max_k: int | None = None,
                   bmc_bound: int | None = None) -> BatchVerifyResult:
        """Batch-verify many properties through the portfolio scheduler.

        All properties compile into one shared monitored system, each is
        cone-of-influence scoped, and the batch fans out over ``jobs``
        worker processes racing the configured strategy portfolio.
        """
        names = properties if properties is not None else \
            [p.name for p in self.design.properties]
        # Justice (liveness) properties bypass the engines entirely:
        # the answer is UNKNOWN by construction, never PROVEN/VIOLATED.
        justice_names = [n for n in names
                         if self.design.property_spec(n).kind == "justice"]
        names = [n for n in names if n not in set(justice_names)]
        justice_outcomes = [
            PortfolioOutcome(n, self._justice_unknown(n), strategy="none")
            for n in justice_names]
        if not names:
            return BatchVerifyResult(
                design=self.design.name, outcomes=justice_outcomes,
                wall_seconds=0.0, jobs=jobs)
        # Each task is built the way a campaign builds its job: one
        # compile_design pass scopes every property, and race_specs
        # bakes the property's own depth (spec.max_k unless ``max_k``
        # overrides it) into its race — so single-design runs and
        # campaigns share proof-store entries and attempt-log spelling.
        base = tuple(strategies) if strategies is not None \
            else DEFAULT_PORTFOLIO
        bound = bmc_bound if bmc_bound is not None \
            else self.engine_config.bmc_bound
        compiled = {prop.name: (spec, prop, scoped)
                    for spec, prop, scoped in compile_design(self.design)}
        tasks = []
        for name in names:
            spec, prop, scoped = compiled[name]
            tasks.append(VerifyTask(
                scoped, prop, tag=self.design.name, strategies=race_specs(
                    base, max_k=max_k if max_k is not None else spec.max_k,
                    bound=bound)))
        stats_before = replace(self.cache.stats)
        start = time.perf_counter()
        outcomes = list(PortfolioScheduler(jobs=jobs, cache=self.cache)
                        .stream(tasks))
        wall = time.perf_counter() - start
        if self.store is not None:
            # Single-design batches land in the same ledger campaigns
            # write: `explain` answers for a `verify --backend` verdict,
            # and its wall orders the next campaign's pool.
            self.store.record_outcomes([for_design(
                CampaignRow.from_portfolio(outcome), self.design,
                compiled[outcome.property_name][0])
                for outcome in outcomes])
        return BatchVerifyResult(
            design=self.design.name, outcomes=outcomes + justice_outcomes,
            wall_seconds=wall, jobs=jobs,
            cache_stats=self.cache.stats.since(stats_before))

    def lemma_flow(self, targets: list[str] | None = None
                   ) -> LemmaFlowResult:
        """Run the Fig. 1 helper-assertion-generation flow."""
        flow = LemmaGenerationFlow(self.client,
                                   engine_config=self.engine_config,
                                   cache=self.cache)
        return flow.run(self.design, targets=targets)

    def repair(self, property_name: str,
               max_k: int | None = None) -> RepairFlowResult:
        """Run the Fig. 2 induction-step-failure repair loop."""
        flow = InductionRepairFlow(self.client,
                                   engine_config=self.engine_config,
                                   cache=self.cache)
        return flow.run(self.design, property_name, max_k=max_k)


def run_campaign(designs: list[str] | None = None,
                 cache_dir: str | Path | None = None,
                 jobs: int = 1,
                 strategies: list[str] | None = None,
                 max_k: int | None = None,
                 bmc_bound: int | None = None,
                 workers: int = 0,
                 lease_seconds: float = 15.0,
                 wall_timeout: float | None = None,
                 backend: str | None = None,
                 events_dir: str | Path | None = None
                 ) -> CampaignReport:
    """Verify many designs in one cross-design campaign.

    ``designs`` are registry names (default: the whole registry).  With
    ``cache_dir`` the campaign is incremental: results persist in the
    on-disk proof store, repeated campaigns are answered from it without
    re-proving, and its ledger orders the pool longest-expected-first.
    Without it, an in-memory store scopes all of that to this process.
    Every property races the whole ``strategies`` portfolio (default:
    the standard one).

    ``backend`` picks where the queue and store live:
    ``sqlite:DIR`` is shorthand for ``cache_dir=DIR``, and
    ``http://HOST:PORT`` points everything — the proof store, the work
    queue, and any spawned workers — at a ``repro-verify serve``
    instance, which is how campaigns span machines without a shared
    filesystem.  An explicit ``backend`` takes precedence over
    ``cache_dir``.

    ``workers=N`` (N >= 1) dispatches the job pool across N local worker
    processes instead of running it in-process: the coordinator leases
    jobs through the shared work queue, workers race one job at a time
    into the shared store, and crashed workers' jobs are requeued (see
    :mod:`repro.dist`).  Verdicts are identical either way.
    Crash detection is heartbeat-based, so a worker stuck *inside* one
    solver call (alive and still beating) keeps its lease;
    ``wall_timeout`` bounds the whole distributed run as the guard for
    that case.  A distributed sqlite-backend run needs an on-disk
    rendezvous point, so without a ``cache_dir`` a temporary directory
    is used and discarded afterwards — matching the single-process
    in-memory default.

    ``events_dir`` captures the run's record stream
    (:mod:`repro.obs.journal`): every process the campaign touches
    (coordinator, spawned workers, pool processes) appends JSONL
    records there — check/job/queue/campaign facts, the ones with a
    duration forming one span tree — which ``scripts/trace_report.py``
    renders and ``repro-verify explain`` digs through.  The report's
    ``trace_id`` names the run.
    """
    if workers < 0:
        raise ValueError("workers must be >= 0 (0 = run in-process)")
    resolved = None
    if backend is not None:
        from repro.dist.backend import parse_backend
        resolved = parse_backend(backend)
        if resolved.kind == "sqlite":
            cache_dir = resolved.location  # backend wins over cache_dir
    remote = resolved is not None and resolved.is_remote
    scratch_dir: str | None = None
    if not remote and workers > 0 and cache_dir is None:
        scratch_dir = tempfile.mkdtemp(prefix="repro-campaign-")
        cache_dir = scratch_dir
    if remote:
        from repro.dist.backend import open_store
        store = open_store(resolved)
    else:
        store = ProofStore.open(cache_dir) if cache_dir is not None \
            else ProofStore.in_memory()
    if events_dir is not None:
        _journal.configure(events_dir)
    try:
        selected = select_designs(designs)
        # One store-backed cache per campaign, handed to whichever
        # dispatcher runs it.
        cache = ResultCache(backing=store)
        dispatcher = None
        if workers > 0:
            # Opens the work queue, so only once the inputs are known
            # good; its dispatch() closes it again.
            from repro.dist import Coordinator
            dispatcher = Coordinator(
                resolved if remote else cache_dir, workers=workers,
                lease_seconds=lease_seconds, wall_timeout=wall_timeout,
                cache=cache)
        scheduler = CampaignScheduler(
            selected, store, jobs=jobs,
            strategies=strategies, max_k=max_k, bmc_bound=bmc_bound,
            cache=cache, dispatcher=dispatcher)
        return scheduler.run()
    finally:
        if events_dir is not None:
            _journal.shutdown()
        # Only a scratch store is closed here.  A store on `cache_dir`
        # is left to the cyclic GC (a sqlite3 Connection, its cached
        # Statements and an lru_cache wrapper form a cycle, so each
        # call holds about two descriptors until `gc.collect()`):
        # closing it here made warm campaigns on the in-tree corpus
        # about 1.5x slower per pass, likely because closing the last
        # WAL connection checkpoints the WAL and the next pass then
        # reopens the store cold.
        if scratch_dir is not None:
            store.close()
            shutil.rmtree(scratch_dir, ignore_errors=True)
