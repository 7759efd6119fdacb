"""The six workloads of the end-to-end benchmark (see README.md).

A workload is built once per process (that is its set-up), exposes the
fixed list of operations one *pass* runs, and names a cheaper warm-up
list.  An operation is one call into a top-level public entry point of
``repro``; ``prepare``/``finish`` hold what must happen around it but
is not the program's work (a fresh cache directory, starting and
closing a service), and ``judge`` is the oracle, always run after the
timed region.

Expected verdicts come from the designs' hand-written ``expect``
(registry ``PropertySpec`` / corpus ``repro-prop`` comments), never
from an engine.
"""

from __future__ import annotations

import dataclasses
import random
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

from repro.campaign import ProofStore, compile_design
from repro.designs.base import Design
from repro.designs.registry import (all_designs, get_design, load_corpus,
                                    select_designs)
from repro.dist import ProofService
from repro.flow.session import VerificationSession, run_campaign
from repro.formats.designio import import_design
from repro.genai import SimulatedLLM
from repro.genai.personas import PAPER_MODELS
from repro.mc.cache import query_key
from repro.mc.certcheck import check_certificate
from repro.mc.engine import ProofEngine
from repro.mc.result import CheckResult, Status
from repro.mc.strategy import canonical_options, resolve_strategy
from repro.qa.oracle import replay_trace
from repro.sva.compile import MonitorContext

#: The campaigns and ``verify_small`` leave this corpus family out: its
#: one file is 96 % of a cold corpus campaign's wall clock, all of it
#: SAT search, which is what ``solver_deep`` is for.
SOLVER_FAMILY = "ecc"

#: Depth limit of every campaign and ``verify_small`` batch.
BMC_BOUND = 5

#: SimulatedLLM seed.  Pinned, not taken from ``--seed``: the personas'
#: output depends on it strongly enough (16.2–18.8 s and 32–36 decided
#: of 40 over seeds 0–3 on the issue's op list) that runs with different
#: seeds would not be comparable.  ``--seed`` orders the operations.
LLM_SEED = 1


@dataclass
class Env:
    """What set-up needs to know about the run."""

    root: Path          # the checkout
    scratch: Path       # this process's private, disposable directory
    seed: int
    traced: bool = False
    _dirs: int = 0

    @property
    def corpus(self) -> Path:
        return self.root / "corpus"

    def fresh_dir(self, prefix: str) -> Path:
        self._dirs += 1
        path = self.scratch / f"{prefix}{self._dirs}"
        path.mkdir(parents=True)
        return path


@dataclass
class Judgement:
    """The oracle's finding on one operation."""

    verdicts: int = 0       # properties / flow targets given a final status
    decided: int = 0        # ... conclusively, and equal to `expect`
    problems: list[str] = field(default_factory=list)

    def expect(self, what: str, status: str, expect: str) -> bool:
        """Score one verdict against the hand-written expectation;
        returns whether it is a confirmed counterexample or proof."""
        self.verdicts += 1
        conclusive = status in ("proven", "violated")
        if conclusive and expect in ("proven", "violated"):
            if status == expect:
                self.decided += 1
            else:
                self.problems.append(
                    f"{what}: {status}, but the design expects {expect}")
        return conclusive

    def absorb(self, other: "Judgement") -> None:
        self.verdicts += other.verdicts
        self.decided += other.decided
        self.problems += other.problems


class Op:
    """One operation: ``run`` is timed, the rest is not."""

    name = ""
    cost = 0.0      # rough seconds; picks the warm-up's cheapest ops

    def prepare(self):
        return None

    def run(self, ctx):
        raise NotImplementedError

    def finish(self, ctx, result) -> None:
        pass

    def judge(self, result) -> Judgement:
        raise NotImplementedError


def fresh_design(design: Design, **params: int) -> Design:
    """A copy that has never been elaborated (and, optionally, other
    parameter values): every op pays for its own frontend."""
    return dataclasses.replace(
        design, _system_cache=None,
        params={**design.params, **params} if params else design.params)


def compile_property(design: Design, property_name: str):
    """(engine, property, spec) the way the session compiles it."""
    spec = design.property_spec(property_name)
    ctx = MonitorContext(design.system())
    prop = ctx.add(spec.sva, name=spec.name)
    return ProofEngine(ctx.system), prop, spec


def audit_result(judgement: Judgement, what: str, engine: ProofEngine,
                 prop, result: CheckResult) -> None:
    """Distrust a conclusive verdict: replay the counterexample, re-check
    the invariant certificate."""
    system = engine.scoped_system(prop)
    if result.status is Status.VIOLATED:
        problem = replay_trace(system, prop, result)
        if problem is not None:
            judgement.problems.append(f"{what}: trace replay: {problem}")
    elif result.status is Status.PROVEN and result.invariant:
        report = check_certificate(system, prop, result.invariant)
        if not report.ok:
            judgement.problems.append(f"{what}: {report.one_line()}")


# ---------------------------------------------------------------------------
# solver_deep
# ---------------------------------------------------------------------------

class CheckOp(Op):
    """Fresh compile + one ``ProofEngine.check``."""

    def __init__(self, design: str, params: dict, prop: str,
                 strategy: str, options: dict, cost: float):
        self.design, self.params = design, params
        self.prop, self.strategy, self.options = prop, strategy, options
        self.cost = cost
        shown = ",".join(f"{k}={v}" for k, v in options.items())
        self.name = f"{design}.{prop}:{strategy}({shown})"

    def run(self, ctx):
        engine, prop, spec = compile_property(
            fresh_design(get_design(self.design), **self.params), self.prop)
        return (engine, prop, spec,
                engine.check(prop, self.strategy, **self.options))

    def judge(self, result) -> Judgement:
        engine, prop, spec, check = result
        judgement = Judgement()
        if judgement.expect(self.name, check.status.value, spec.expect):
            audit_result(judgement, self.name, engine, prop, check)
        return judgement


class SolverDeep:
    """SAT-bound checks: conflict-heavy CDCL and incremental PDR."""

    name = "solver_deep"

    def __init__(self, env: Env):
        self.ops: list[Op] = [
            CheckOp("ecc_pipeline", {}, "single_error_corrected",
                    "k_induction", {"max_k": 2}, cost=3.1),
            CheckOp("sync_counters", {"W": 4}, "equal_count", "pdr", {},
                    cost=1.5),
            CheckOp("gray_counter", {}, "unit_distance", "pdr", {},
                    cost=1.3),
            CheckOp("lfsr16", {}, "never_zero", "bmc", {"bound": 40},
                    cost=0.6),
            CheckOp("ecc_pipeline", {}, "no_error_clean", "bmc",
                    {"bound": 8}, cost=0.7),
        ]
        self.warmup = cheapest(self.ops, 2)


# ---------------------------------------------------------------------------
# verify_small
# ---------------------------------------------------------------------------

class VerifyOp(Op):
    """Fresh ``Design`` + ``VerificationSession.verify_all`` inline."""

    def __init__(self, name: str, make_design, **verify):
        self.name, self.make_design, self.verify = name, make_design, verify

    def run(self, ctx):
        design = self.make_design()
        return design, VerificationSession(design).verify_all(
            jobs=1, **self.verify)

    def judge(self, result) -> Judgement:
        design, batch = result
        judgement = Judgement()
        for outcome in batch.outcomes:
            what = f"{self.name}.{outcome.property_name}"
            spec = design.property_spec(outcome.property_name)
            if judgement.expect(what, outcome.status.value, spec.expect):
                engine, prop, _ = compile_property(
                    design, outcome.property_name)
                audit_result(judgement, what, engine, prop, outcome.result)
        return judgement


def corpus_files(env: Env) -> list[tuple[Path, str, str]]:
    """(path, design name, family) of every campaign corpus file."""
    return [(env.corpus / design.name, design.name, design.family)
            for design in load_corpus(env.corpus)
            if design.family != SOLVER_FAMILY]


class VerifySmall:
    """Interactive time-to-verdict: frontend + encode + short solves."""

    name = "verify_small"

    def __init__(self, env: Env):
        self.ops: list[Op] = []
        for path, name, family in corpus_files(env):
            self.ops.append(VerifyOp(
                name, lambda p=path, n=name, f=family:
                import_design(p, name=n, family=f),
                bmc_bound=BMC_BOUND))
        for design in all_designs():
            if design.family != SOLVER_FAMILY:
                self.ops.append(VerifyOp(
                    design.name, lambda d=design: fresh_design(d),
                    bmc_bound=BMC_BOUND))
        # The encode-bound tail: wide datapaths, trivial solving.
        wide = get_design("sync_counters")
        for width in (8, 16, 32, 48):
            self.ops.append(VerifyOp(
                f"sync_counters{{W={width}}}",
                lambda w=width: fresh_design(wide, W=w),
                strategies=["bmc"], bmc_bound=32))
        # A pass is over 3 s: warm up on one design per input format,
        # one RTL design and one wide one.
        by_name = {op.name: op for op in self.ops}
        self.warmup = [by_name[name] for name in (
            "classics/toggle_safe.aag", "classics/toggle_safe.aig",
            "counters/lfsr16.btor2", "updown_counter",
            "sync_counters{W=8}")]


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------

def verdict_map(report) -> dict[str, str]:
    return {f"{row.design}:{row.property_name}": row.status
            for row in report.rows}


class CampaignAudit:
    """Oracle shared by the three campaign workloads.

    Every report is scored against ``expect``; every VIOLATED row's
    counterexample is fetched from the proof store under the same key
    the engine stored it, and replayed; and every report of the run
    must carry the same verdicts, property for property, as the first
    one judged - a cold campaign in every workload (see
    ``make_reference``).
    """

    def __init__(self, names: list[str]):
        self.compiled = {
            (design.name, spec.name): (spec, prop, scoped)
            for design in select_designs(names)
            for spec, prop, scoped in compile_design(design)}
        self.reference: dict[str, str] | None = None
        #: ``() -> (report, store_dir)`` of a local cold campaign, run
        #: (and judged) before the first report when the workload has
        #: no cold report of its own to compare with.
        self.make_reference = None
        self._replayed: dict[tuple[Path, str], str | None] = {}

    def judge(self, what: str, report, store_dir: Path) -> Judgement:
        judgement = Judgement()
        if self.make_reference is not None:
            make, self.make_reference = self.make_reference, None
            judgement.problems += self.judge(
                "local reference", *make()).problems
        verdicts = verdict_map(report)
        if self.reference is None:
            self.reference = verdicts
        elif verdicts != self.reference:
            changed = sorted(k for k in set(verdicts) | set(self.reference)
                             if verdicts.get(k) != self.reference.get(k))
            judgement.problems.append(
                f"{what}: verdicts differ from the cold reference on "
                f"{changed[:4]}")
        store = None
        try:
            for row in report.rows:
                label = f"{what}:{row.design}.{row.property_name}"
                judgement.expect(label, row.status, row.expect)
                if row.status != "violated":
                    continue
                if store is None:
                    store = ProofStore.open(store_dir)
                problem = self._replay(row, store, store_dir)
                if problem is not None:
                    judgement.problems.append(f"{label}: {problem}")
        finally:
            if store is not None:
                store.close()
        return judgement

    def _replay(self, row, store: ProofStore, store_dir: Path
                ) -> str | None:
        """Once per store and query: the warm workload asks the same
        store the same thing every pass."""
        _spec, prop, scoped = self.compiled[(row.design, row.property_name)]
        strategy, options = resolve_strategy(row.strategy)
        key = (store_dir, query_key(scoped, prop, strategy.name,
                                    canonical_options(strategy, options), []))
        if key not in self._replayed:
            result = store.load(key[1])
            self._replayed[key] = "counterexample is not in the store" \
                if result is None else replay_trace(scoped, prop, result)
        return self._replayed[key]


def campaign_names(env: Env) -> list[str]:
    """Campaign design list, in an order drawn from the seed."""
    names = [name for _path, name, _family in corpus_files(env)]
    random.Random(f"{env.seed}:campaign").shuffle(names)
    return names


def store_bytes(cache_dir: Path) -> int:
    return sum(path.stat().st_size
               for path in cache_dir.glob(ProofStore.FILENAME + "*"))


class CampaignOp(Op):
    """``run_campaign`` against a local cache directory."""

    def __init__(self, workload, cache_dir: Path | None,
                 names: list[str] | None = None):
        self.workload = workload
        self.cache_dir = cache_dir      # None: a fresh one per run
        self.name = workload.name
        # A shorter design list (the warm-up's) is judged on its own.
        self.names = names or workload.names
        self.audit = CampaignAudit(names) if names else workload.audit

    def prepare(self):
        return self.cache_dir or self.workload.env.fresh_dir("cold")

    def run(self, cache_dir):
        return cache_dir, run_campaign(
            self.names, cache_dir=cache_dir, jobs=2, bmc_bound=BMC_BOUND)

    def finish(self, cache_dir, result) -> None:
        self.workload.extra["campaign.store.db_bytes"] = \
            store_bytes(cache_dir)

    def judge(self, result) -> Judgement:
        cache_dir, report = result
        return self.audit.judge(self.name, report, cache_dir)


class Campaign:
    """What the three campaign workloads share: the seed-ordered design
    list, the oracle, and what only the workload can measure."""

    def __init__(self, env: Env):
        self.env = env
        self.names = campaign_names(env)
        self.audit = CampaignAudit(self.names)
        self.extra: dict[str, float] = {}


class CampaignCold(Campaign):
    """The batch path, nothing cached: pool, pickling, store writes."""

    name = "campaign_cold"

    def __init__(self, env: Env):
        super().__init__(env)
        self.ops: list[Op] = [CampaignOp(self, None)]
        # Three designs (the same three whatever the seed) are enough
        # to import, fork a pool and create a store once; the first
        # timed report is the verdict reference.
        self.warmup = [CampaignOp(self, None, names=sorted(self.names)[:3])]


class CampaignWarm(Campaign):
    """The same campaign answered entirely from a filled store."""

    name = "campaign_warm"

    def __init__(self, env: Env):
        super().__init__(env)
        cache_dir = env.fresh_dir("warm")
        fill = CampaignOp(self, cache_dir)
        # The cold fill is the reference the warm verdicts must equal.
        problems = fill.judge(fill.run(cache_dir)).problems
        if problems:
            raise RuntimeError(f"store fill failed the oracle: {problems}")
        self.ops: list[Op] = [CampaignOp(self, cache_dir)]
        self.warmup = self.ops


class DistOp(Op):
    """Cold then warm ``run_campaign`` through a fresh ProofService."""

    name = "campaign_dist"

    def __init__(self, workload):
        self.workload = workload

    def prepare(self):
        cache_dir = self.workload.env.fresh_dir("svc")
        return cache_dir, ProofService(cache_dir=cache_dir, port=0).start()

    def run(self, ctx):
        cache_dir, service = ctx
        reports = [run_campaign(self.workload.names,
                                backend=service.address, workers=2,
                                bmc_bound=BMC_BOUND)
                   for _ in ("cold", "warm")]
        return cache_dir, reports

    def finish(self, ctx, result) -> None:
        cache_dir, service = ctx
        try:
            if result is not None and self.workload.env.traced:
                self.workload.note_pass(service, cache_dir, result[1])
        finally:
            service.close()

    def judge(self, result) -> Judgement:
        cache_dir, reports = result
        total = Judgement()
        for phase, report in zip(("cold", "warm"), reports):
            total.absorb(self.workload.audit.judge(
                f"{self.name}/{phase}", report, cache_dir))
        return total


def wire_totals(address: str) -> dict[str, float]:
    """Requests, request seconds and 503s from the service's /metrics."""
    with urllib.request.urlopen(address + "/metrics", timeout=10) as reply:
        text = reply.read().decode()
    totals = {"dist.wire.requests": 0.0, "dist.wire.request_s": 0.0,
              "dist.wire.unavailable": 0.0}
    series = {"repro_http_requests_total": "dist.wire.requests",
              "repro_http_request_seconds_sum": "dist.wire.request_s",
              "repro_http_unavailable_total": "dist.wire.unavailable"}
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        sample, _, value = line.rpartition(" ")
        key = series.get(sample.partition("{")[0])
        if key is not None:
            totals[key] += float(value)
    return totals


class CampaignDist(Campaign):
    """The same jobs through the fabric: queue, workers, wire."""

    name = "campaign_dist"

    def __init__(self, env: Env):
        super().__init__(env)
        self.audit.make_reference = self.local_reference
        self.local_cold_s: float | None = None
        self.ops: list[Op] = [DistOp(self)]
        # Every op starts a new service and new worker interpreters, so
        # there is little a warm-up could leave warm.
        self.warmup: list[Op] = []

    def local_reference(self):
        """A local cold campaign: the verdicts the fabric must
        reproduce, and the wall clock its overhead is measured against.
        Oracle work - it runs when the first pass is judged."""
        local = CampaignOp(self, None)
        cache_dir, report = local.run(local.prepare())
        self.local_cold_s = report.wall_seconds
        return report, cache_dir

    def note_pass(self, service, cache_dir: Path, reports) -> None:
        cold, warm = reports
        self.extra.update(wire_totals(service.address))
        self.extra["campaign.store.db_bytes"] = store_bytes(cache_dir)
        self.extra["dist.cold_pass_s"] = cold.wall_seconds
        self.extra["dist.warm_pass_s"] = warm.wall_seconds
        if self.local_cold_s is not None:
            self.extra["dist.fabric_overhead_s"] = \
                cold.wall_seconds - self.local_cold_s


# ---------------------------------------------------------------------------
# genai_flows
# ---------------------------------------------------------------------------

REPAIR_TARGETS = [
    ("sync_counters", "equal_count", 0.45),
    ("traffic_onehot", "mutual_exclusion", 0.25),
    ("sync_counters_bug", "counters_equal", 0.06),
]

LEMMA_TARGETS = [
    ("sync_counters", ["equal_count"], 0.17),
    ("fifo_ctrl", ["occupancy_bound", "empty_means_zero"], 0.5),
    ("lfsr16", ["never_zero"], 0.07),
    ("shift_pipe", ["stage_consistency"], 0.13),
    ("updown_counter", ["upper_bound"], 0.09),
]


class FlowOp(Op):
    def __init__(self, model: str, design: str, cost: float):
        self.model, self.design, self.cost = model, design, cost

    def session(self) -> VerificationSession:
        return VerificationSession(
            fresh_design(get_design(self.design)),
            client=SimulatedLLM(self.model, seed=LLM_SEED))


class RepairOp(FlowOp):
    """Fig. 2: ``VerificationSession.repair`` on one target."""

    def __init__(self, model: str, design: str, prop: str, cost: float):
        super().__init__(model, design, cost)
        self.prop = prop
        self.name = f"repair:{model}:{design}.{prop}"

    def run(self, ctx):
        session = self.session()
        return session.design, session.repair(self.prop)

    def judge(self, result) -> Judgement:
        design, flow = result
        judgement = Judgement()
        engine, prop, spec = compile_property(design, self.prop)
        judgement.expect(self.name, flow.status.value, spec.expect)
        if flow.status is Status.VIOLATED and flow.final is not None:
            audit_result(judgement, self.name, engine, prop, flow.final)
        return judgement


class LemmaOp(FlowOp):
    """Fig. 1: ``VerificationSession.lemma_flow`` on one design."""

    def __init__(self, model: str, design: str, targets: list[str],
                 cost: float):
        super().__init__(model, design, cost)
        self.targets = targets
        self.name = f"lemma:{model}:{design}"

    def run(self, ctx):
        session = self.session()
        return session.design, session.lemma_flow(targets=self.targets)

    def judge(self, result) -> Judgement:
        design, flow = result
        judgement = Judgement()
        for comparison in flow.targets:
            spec = design.property_spec(comparison.name)
            judgement.expect(f"{self.name}.{comparison.name}",
                             comparison.with_lemmas.status.value,
                             spec.expect)
        return judgement


class GenaiFlows:
    """The paper's loop, once per persona: generate, parse, screen,
    Houdini, prove with lemmas."""

    name = "genai_flows"

    def __init__(self, env: Env):
        self.ops: list[Op] = []
        for model in PAPER_MODELS:
            for design, prop, cost in REPAIR_TARGETS:
                self.ops.append(RepairOp(model, design, prop, cost))
            for design, targets, cost in LEMMA_TARGETS:
                self.ops.append(LemmaOp(model, design, targets, cost))
        self.warmup = cheapest(self.ops, 2)


# ---------------------------------------------------------------------------

def cheapest(ops: list[Op], count: int) -> list[Op]:
    return sorted(ops, key=lambda op: op.cost)[:count]


WORKLOADS = {cls.name: cls for cls in (
    SolverDeep, VerifySmall, CampaignCold, CampaignWarm, CampaignDist,
    GenaiFlows)}
