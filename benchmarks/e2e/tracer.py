"""Outside-in span tracing for the end-to-end benchmark.

Nothing here edits ``src/``: :func:`install` replaces the public layer
entry points listed in :data:`WRAPPED` (see README.md) with timing
wrappers, from this file, for the duration of one traced pass.  Spans
(name, start, end, parent, op id) are kept in memory and written out
once the pass is over; counts are taken at the same boundaries, so
every ratio is measured where the work happens.

A span's *self time* is its duration minus the part its child spans
cover; the ``*_s`` per-layer metrics are self times summed by span
name, which is why they add up to (at most) the traced wall clock.
Only the process that installed the tracer is visible: compute done in
pool processes or spawned workers is attributed from the attempt logs
and ``CheckResult.stats`` they send back, never guessed.
"""

from __future__ import annotations

import json
import pickle
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

# Span record layout (a list, mutated in place while the span is open).
NAME, START, END, PARENT, OP, CHILD = range(6)

#: Strategy registry names -> the engine family whose ``mc.<family>_s``
#: metric their checks are booked under.
ENGINE_FAMILY = {
    "bmc": "bmc", "bmc_probe": "bmc", "external": "bmc",
    "k_induction": "kinduction", "k_induction_sp": "kinduction",
    "pdr": "pdr", "pdr_seeded": "pdr",
}

#: Span name -> the per-layer ``*_s`` metric its self time feeds (a
#: layer's several entry points share one metric).
SELF_TIME_METRIC = {
    "formats.parse": "formats.parse_s",
    "hdl.elaborate": "hdl.elaborate_s",
    "hdl.system": "hdl.elaborate_s",
    "sva.compile": "sva.compile_s",
    "ir.coi": "ir.coi_s",
    "ir.unroll": "ir.unroll_s",
    "aig.blast": "aig.blast_s",
    "aig.cnf": "aig.cnf_s",
    "sat.solve": "sat.solve_s",
    "mc.bmc": "mc.bmc_s",
    "mc.kinduction": "mc.kinduction_s",
    "mc.pdr": "mc.pdr_s",
    "mc.race": "mc.race_s",
    "mc.cache.key": "mc.cache.key_s",
    "mc.cache.lookup": "mc.cache.lookup_s",
    "mc.portfolio.stream": "mc.portfolio.stream_s",
    "campaign.compile": "campaign.compile_s",
    "campaign.dispatch": "campaign.dispatch_s",
    "campaign.store.write": "campaign.store.write_s",
    "campaign.store.read": "campaign.store.read_s",
    "dist.queue.enqueue": "dist.queue.enqueue_s",
    "dist.queue.claim": "dist.queue.claim_s",
    "dist.queue.complete": "dist.queue.complete_s",
    "dist.queue.other": "dist.queue.other_s",
    "flow.repair": "flow.repair_s",
    "flow.lemma": "flow.lemma_s",
    "flow.houdini": "flow.houdini_s",
    "genai.complete": "genai.complete_s",
    "sim.screen": "sim.screen_s",
}

#: The harness's own per-operation root span: not a layer of the
#: program, so it is left out of the coverage figure.
OP_SPAN = "harness.op"


def strategy_family(spec: str) -> str:
    return ENGINE_FAMILY.get(spec.split("(", 1)[0].strip(), "bmc")


class Tracer:
    """In-memory span + count recorder for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        #: One row per strategy attempt: the effort ledger the ``mc.*``
        #: accounting is computed from (see :meth:`note_attempts`).
        self.attempts: list[dict] = []
        self.op: str = ""
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list = []
        #: Modules outside ``repro`` whose ``from repro.x import f``
        #: bindings must be rebound too (the workloads call the layers'
        #: entry points directly).
        self.also: list = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        span = [name, time.perf_counter(), 0.0,
                stack[-1] if stack else None, self.op, 0.0]
        self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: list) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        span[END] = end
        if stack:
            stack[-1][CHILD] += end - span[START]

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    @contextmanager
    def operation(self, op_id: str):
        """The harness's root span around one operation; every span
        opened inside carries ``op_id``."""
        self.op = op_id
        with self.span(OP_SPAN):
            yield

    def add(self, key: str, value: float = 1) -> None:
        """Bump a count (locked: pool callbacks run on other threads)."""
        with self._lock:
            self.counts[key] += value

    def wrap(self, func, name, before=None, after=None):
        """``func`` timed as a span called ``name``.

        ``name`` is a string or ``name(args, kwargs) -> str``;
        ``before(args, kwargs)`` returns a token handed to
        ``after(token, args, kwargs, result)``, which only runs when the
        call returned normally.  A call made directly from a span of
        the same name (``assert_lit`` encoding through
        ``encode_new_nodes``) is the same visit to the layer: it runs
        unwrapped, inside the span that is already open.
        """
        tracer = self
        dynamic = callable(name)

        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if dynamic else name
            stack = tracer._stack()
            if stack and stack[-1][NAME] == span_name:
                return func(*args, **kwargs)
            token = before(args, kwargs) if before is not None else None
            span = tracer._open(span_name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                after(token, args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", "wrapped")
        wrapper.__doc__ = getattr(func, "__doc__", None)
        return wrapper

    # ------------------------------------------------------------------
    # Installing / removing wrappers
    # ------------------------------------------------------------------

    def patch_method(self, cls, attr, name, before=None, after=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(original, name, before, after))
        self._undo.append((cls, attr, original))

    def patch_function(self, func, name, before=None, after=None):
        """Rebind every ``repro.*`` module attribute that is ``func``
        (``from x import f`` copies the binding into each importer)."""
        wrapped = self.wrap(func, name, before, after)
        self.rebind(func, wrapped)

    def rebind(self, original, replacement) -> None:
        for module in list(sys.modules.values()):
            if module is None or not (
                    module in self.also or getattr(
                        module, "__name__", "").startswith("repro")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------------
    # The attempt ledger
    # ------------------------------------------------------------------

    def note_attempts(self, rows, in_process: bool) -> None:
        """Record attempt-log rows (see ``repro.mc.portfolio.attempt_record``).

        ``in_process`` rows ran under a ``run_cached`` span here, so
        their engine seconds are already span self time; rows from pool
        processes or workers carry the only timing there is, and it is
        booked to the engine family directly.
        """
        for row in rows:
            self.attempts.append(
                {"strategy": row["strategy"], "origin": row["origin"],
                 "winner": bool(row["winner"]),
                 "wall_seconds": row["wall_seconds"],
                 "in_process": in_process})

    # ------------------------------------------------------------------
    # Roll-up
    # ------------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self seconds summed by span name."""
        totals: dict[str, float] = {}
        for span in self.spans:
            own = span[END] - span[START] - span[CHILD]
            totals[span[NAME]] = totals.get(span[NAME], 0.0) + own
        return totals

    def call_counts(self) -> Counter:
        return Counter(span[NAME] for span in self.spans)

    def self_exceeds_parent(self) -> int:
        """Spans whose self time exceeds their parent's duration (a
        bookkeeping bug if ever non-zero; the smoke test asserts 0)."""
        bad = 0
        for span in self.spans:
            parent = span[PARENT]
            if parent is None:
                continue
            own = span[END] - span[START] - span[CHILD]
            if own > (parent[END] - parent[START]) + 1e-9:
                bad += 1
        return bad

    def write_spans(self, path) -> None:
        """One JSON object per line: id, name, layer, start, end,
        parent id, op id, self seconds."""
        ids = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as out:
            for i, span in enumerate(self.spans):
                parent = span[PARENT]
                out.write(json.dumps({
                    "id": i, "name": span[NAME],
                    "layer": span[NAME].rpartition(".")[0],
                    "start": span[START], "end": span[END],
                    "parent": ids[id(parent)] if parent is not None
                    else None,
                    "op": span[OP],
                    "self_s": span[END] - span[START] - span[CHILD],
                }) + "\n")


# ---------------------------------------------------------------------------
# The wrapper table
# ---------------------------------------------------------------------------

def install(tracer: Tracer, also=()) -> None:
    """Wrap every public layer entry point (imports the layers first, so
    every ``from x import f`` binding exists before it is rebound).
    ``also`` lists modules outside ``repro`` that call those entry
    points by imported name."""
    tracer.also = list(also)
    import repro.campaign.scheduler as scheduler_mod
    import repro.campaign.store as store_mod
    import repro.designs.base as base_mod
    import repro.designs.registry as registry_mod
    import repro.dist  # noqa: F401  (binds the dist layer's imports)
    import repro.dist.queue as queue_mod
    import repro.flow.houdini as houdini_mod
    import repro.flow.lemma_flow as lemma_mod
    import repro.flow.repair_flow as repair_mod
    import repro.flow.session  # noqa: F401
    import repro.formats.designio as designio_mod
    import repro.genai.client as client_mod
    import repro.mc.cache as cache_mod
    import repro.mc.engine as engine_mod
    import repro.mc.portfolio as portfolio_mod
    import repro.mc.strategy as strategy_mod
    import repro.mc.unroll as unroll_mod
    import repro.sim.screening as screening_mod
    import repro.sva.compile as sva_mod
    from repro.aig.bitblast import BitBlaster
    from repro.aig.cnf import CnfBuilder
    from repro.sat.solver import Solver

    # The hdl package re-exports the `elaborate` function under the
    # submodule's own name, so fetch the module from sys.modules.
    elaborate_mod = sys.modules["repro.hdl.elaborate"]

    add = tracer.add

    # -- formats / hdl / sva ------------------------------------------
    tracer.patch_function(registry_mod.load_corpus, "formats.parse")
    tracer.patch_function(
        designio_mod.import_design, "formats.parse",
        after=lambda _t, _a, _k, _r: add("formats.files"))
    tracer.patch_function(
        elaborate_mod.elaborate, "hdl.elaborate",
        after=lambda _t, _a, _k, _r: add("hdl.elaborate_calls"))
    tracer.patch_method(base_mod.Design, "system", "hdl.system")
    tracer.patch_method(
        sva_mod.MonitorContext, "add", "sva.compile",
        after=lambda _t, _a, _k, _r: add("sva.monitors"))

    # -- ir ------------------------------------------------------------
    def after_coi(_token, args, _kwargs, scoped):
        add("ir.coi_calls")
        add("ir.coi_states_in", len(args[0].system.states))
        add("ir.coi_states_kept", len(scoped.states))

    tracer.patch_method(engine_mod.ProofEngine, "scoped_system",
                        "ir.coi", after=after_coi)
    for method in ("at_time", "transition", "init_constraints"):
        tracer.patch_method(unroll_mod.Unroller, method, "ir.unroll")

    # -- aig -----------------------------------------------------------
    def before_blast(args, _kwargs):
        return args[0].aig.num_nodes

    def after_blast(nodes_before, args, _kwargs, _result):
        add("aig.blast_calls")
        add("aig.nodes", args[0].aig.num_nodes - nodes_before)

    tracer.patch_method(BitBlaster, "blast", "aig.blast",
                        before=before_blast, after=after_blast)

    def before_cnf(args, _kwargs):
        solver = args[0].solver
        return (solver.stats.clauses_added, solver.num_vars())

    def after_cnf(token, args, _kwargs, _result):
        solver = args[0].solver
        add("aig.cnf_clauses", solver.stats.clauses_added - token[0])
        add("aig.cnf_vars", solver.num_vars() - token[1])

    for method in ("encode_new_nodes", "assert_lit"):
        tracer.patch_method(CnfBuilder, method, "aig.cnf",
                            before=before_cnf, after=after_cnf)

    # -- sat (Solver.solve delegates to solve_limited) -------------------
    def before_solve(args, _kwargs):
        stats = args[0].stats
        return (stats.conflicts, stats.propagations)

    def after_solve(token, args, _kwargs, result):
        stats = args[0].stats
        add("sat.solve_calls")
        add("sat.conflicts", stats.conflicts - token[0])
        add("sat.propagations", stats.propagations - token[1])
        if result is None:
            add("sat.budget_exhausted")

    tracer.patch_method(Solver, "solve_limited", "sat.solve",
                        before=before_solve, after=after_solve)

    # -- mc: checks, cache, portfolio ----------------------------------
    in_stream = threading.local()

    def check_name(args, _kwargs):
        return "mc." + strategy_family(args[0])

    def cache_of(args, kwargs):
        # run_cached(spec, system, prop, options, lemmas, cache)
        return kwargs["cache"] if "cache" in kwargs else \
            (args[5] if len(args) > 5 else None)

    def before_check(args, kwargs):
        cache = cache_of(args, kwargs)
        return cache.stats.hits if cache is not None else None

    def after_check(hits_before, args, kwargs, result):
        if getattr(in_stream, "active", False):
            return      # the stream's attempt log covers this check
        cache = cache_of(args, kwargs)
        hit = cache is not None and cache.stats.hits > hits_before
        tracer.note_attempts(
            [{"strategy": args[0], "winner": True,
              "origin": "cache" if hit else "solver",
              "wall_seconds": result.stats.wall_seconds}],
            in_process=True)

    tracer.patch_function(cache_mod.run_cached, check_name,
                          before=before_check, after=after_check)
    tracer.patch_function(
        strategy_mod.run_check_task,
        lambda args, _k: "mc." + strategy_family(args[0].strategy))
    tracer.patch_function(cache_mod.query_key, "mc.cache.key")

    def after_get(_token, _args, _kwargs, result):
        add("mc.cache.hits" if result is not None else "mc.cache.misses")

    tracer.patch_method(cache_mod.ResultCache, "get", "mc.cache.lookup",
                        after=after_get)
    tracer.patch_method(cache_mod.ResultCache, "put", "mc.cache.lookup")

    stream_call = threading.local()

    class TracedPool(ProcessPoolExecutor):
        """The portfolio's process pool, observed from the parent:
        marks the enclosing stream as pool-mode, measures the pickling
        each task and result costs, and sums the wall clock children
        report — discarded racers included."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.call = getattr(stream_call, "current", None)
            if self.call is not None:
                self.call["pool"] = True
                self.call["workers"] = self._max_workers

        def submit(self, fn, *args, **kwargs):
            started = time.perf_counter()
            blob = pickle.dumps(args, pickle.HIGHEST_PROTOCOL)
            add("mc.portfolio.pickle_s", time.perf_counter() - started)
            add("mc.portfolio.pickle_bytes", len(blob))
            future = super().submit(fn, *args, **kwargs)
            future.add_done_callback(self._measure_result)
            return future

        def _measure_result(self, future):
            if future.cancelled() or future.exception() is not None:
                return
            result = future.result()
            started = time.perf_counter()
            blob = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
            add("mc.portfolio.pickle_s", time.perf_counter() - started)
            add("mc.portfolio.pickle_bytes", len(blob))
            if self.call is not None:
                with tracer._lock:
                    self.call["child_wall"] += result.stats.wall_seconds

    tracer.rebind(ProcessPoolExecutor, TracedPool)
    # rebind only touches repro.* namespaces; TracedPool's own base
    # class lookup above stays on the real executor.

    original_stream = portfolio_mod.PortfolioScheduler.__dict__["stream"]

    def traced_stream(scheduler, tasks):
        call = {"pool": False, "workers": 1, "child_wall": 0.0}
        segments: list[list] = []
        outcomes = []
        generator = original_stream(scheduler, tasks)
        while True:
            stream_call.current = call
            in_stream.active = True
            span = tracer._open("mc.race")
            try:
                outcome = next(generator)
            except StopIteration:
                break
            finally:
                tracer._close(span)
                segments.append(span)
                in_stream.active = False
                stream_call.current = None
            outcomes.append(outcome)
            yield outcome
        pooled = call["pool"]
        for outcome in outcomes:
            tracer.note_attempts(outcome.attempt_log,
                                 in_process=not pooled)
        if pooled:
            # The race ran in pool processes: rename the segments so
            # their time lands on the pool's metric, not the inline one.
            wall = 0.0
            for span in segments:
                span[NAME] = "mc.portfolio.stream"
                wall += span[END] - span[START]
            add("mc.portfolio.pool_overhead_s",
                wall - call["child_wall"] / max(call["workers"], 1))
            add("mc.portfolio.cancelled",
                sum(o.cancelled for o in outcomes))

    portfolio_mod.PortfolioScheduler.stream = traced_stream
    tracer._undo.append((portfolio_mod.PortfolioScheduler, "stream",
                         original_stream))

    # -- campaign ------------------------------------------------------
    tracer.patch_function(scheduler_mod.compile_design,
                          "campaign.compile")

    def after_campaign(_token, _args, _kwargs, report):
        add("campaign.jobs", len(report.rows))
        add("campaign.fallback_reruns", report.fallback_reruns)
        if report.workers > 0:
            # Distributed: the races and the caches lived in the
            # workers; what they sent back is all the parent can know.
            for row in report.rows:
                tracer.note_attempts(row.attempts, in_process=False)
            add("mc.cache.hits", report.cache.hits)
            add("mc.cache.misses", report.cache.misses)

    tracer.patch_method(scheduler_mod.CampaignScheduler, "run",
                        "campaign.dispatch", after=after_campaign)
    for method in ("store", "record", "record_ledger"):
        tracer.patch_method(
            store_mod.ProofStore, method, "campaign.store.write",
            after=lambda _t, _a, _k, _r: add("campaign.store.writes"))
    for method in ("load", "expected_wall", "strategy_stats",
                   "property_stats"):
        tracer.patch_method(
            store_mod.ProofStore, method, "campaign.store.read",
            after=lambda _t, _a, _k, _r: add("campaign.store.reads"))

    # -- dist queue (service side: the queue lives in this process) ----
    def queue_after(extra=None):
        def after(_token, _args, _kwargs, result):
            add("dist.queue.ops")
            if extra is not None:
                extra(result)
        return after

    named = {"enqueue": "dist.queue.enqueue", "claim": "dist.queue.claim",
             "complete": "dist.queue.complete"}
    for method in ("enqueue", "claim", "complete", "heartbeat",
                   "begin_campaign", "renew_campaign", "end_campaign",
                   "set_state", "state", "register_worker", "counts",
                   "unfinished", "results", "worker_stats"):
        tracer.patch_method(
            queue_mod.WorkQueue, method,
            named.get(method, "dist.queue.other"), after=queue_after())
    tracer.patch_method(
        queue_mod.WorkQueue, "requeue_expired", "dist.queue.other",
        after=queue_after(lambda r: add("dist.requeued", len(r))))
    tracer.patch_method(
        queue_mod.WorkQueue, "fail", "dist.queue.other",
        after=queue_after(lambda _r: add("dist.failed")))

    # -- flows / genai / sim -------------------------------------------
    def after_flow(_token, _args, _kwargs, result):
        stats = result.stats
        add("flow.iterations", stats.iterations)
        add("genai.emitted", stats.assertions_emitted)
        add("genai.parsed", stats.assertions_parsed)
        add("genai.resolved", stats.assertions_resolved)
        add("genai.proven", stats.assertions_proven)

    tracer.patch_method(repair_mod.InductionRepairFlow, "run",
                        "flow.repair", after=after_flow)
    tracer.patch_method(lemma_mod.LemmaGenerationFlow, "run",
                        "flow.lemma", after=after_flow)
    tracer.patch_function(
        houdini_mod.houdini_prove, "flow.houdini",
        after=lambda _t, _a, _k, r: add("flow.houdini_rounds", r.rounds))
    tracer.patch_method(
        client_mod.SimulatedLLM, "complete", "genai.complete",
        after=lambda _t, _a, _k, _r: add("genai.calls"))

    def after_screen(_token, _args, _kwargs, reports):
        add("sim.screened", len(reports))
        add("sim.screen_killed", sum(1 for r in reports if not r.passed))

    tracer.patch_function(screening_mod.screen_invariants, "sim.screen",
                          after=after_screen)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float,
                  cpu_seconds: float, extra: dict[str, float]
                  ) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json, from one traced pass.

    ``extra`` holds what only the workload can measure (``dist.*`` pass
    times, wire totals, store size); absent keys read 0.
    """
    own = tracer.self_times()
    counts = tracer.counts
    metrics: dict[str, float] = {}
    for span_name, metric in SELF_TIME_METRIC.items():
        metrics[metric] = metrics.get(metric, 0.0) + own.get(span_name, 0.0)

    for key in (
            "formats.files", "hdl.elaborate_calls", "sva.monitors",
            "ir.coi_calls", "aig.blast_calls", "aig.nodes",
            "aig.cnf_clauses", "aig.cnf_vars", "sat.solve_calls",
            "sat.conflicts", "sat.propagations", "sat.budget_exhausted",
            "mc.cache.hits", "mc.cache.misses",
            "mc.portfolio.pool_overhead_s", "mc.portfolio.pickle_s",
            "mc.portfolio.pickle_bytes", "mc.portfolio.cancelled",
            "campaign.jobs", "campaign.fallback_reruns",
            "campaign.store.writes", "campaign.store.reads",
            "dist.queue.ops", "dist.requeued", "dist.failed",
            "flow.iterations", "flow.houdini_rounds", "genai.calls",
            "genai.emitted", "genai.parsed", "genai.resolved",
            "genai.proven", "sim.screened"):
        metrics[key] = counts.get(key, 0)
    metrics["ir.unroll_calls"] = tracer.call_counts().get("ir.unroll", 0)
    metrics["ir.coi_state_keep_ratio"] = _ratio(
        counts.get("ir.coi_states_kept", 0),
        counts.get("ir.coi_states_in", 0))
    metrics["sat.props_per_s"] = _ratio(metrics["sat.propagations"],
                                        metrics["sat.solve_s"])
    metrics["mc.cache.hit_ratio"] = _ratio(
        metrics["mc.cache.hits"],
        metrics["mc.cache.hits"] + metrics["mc.cache.misses"])
    metrics["genai.yield_ratio"] = _ratio(metrics["genai.proven"],
                                          metrics["genai.emitted"])
    metrics["sim.screen_kill_ratio"] = _ratio(
        counts.get("sim.screen_killed", 0), metrics["sim.screened"])

    # The effort ledger: an attempt is a strategy run that reached a
    # solver (cache-served slots and never-started ones are not work).
    ran = [a for a in tracer.attempts if a["origin"] == "solver"]
    attempt_wall = sum(a["wall_seconds"] for a in ran)
    metrics["mc.attempts"] = len(ran)
    metrics["mc.wins"] = sum(1 for a in ran if a["winner"])
    metrics["mc.wasted_s"] = sum(a["wall_seconds"] for a in ran
                                 if not a["winner"])
    metrics["mc.useful_ratio"] = _ratio(metrics["mc.wins"], len(ran))
    metrics["mc.unattributed_cpu_s"] = cpu_seconds - attempt_wall
    for attempt in ran:
        if not attempt["in_process"]:
            metrics[f"mc.{strategy_family(attempt['strategy'])}_s"] += \
                attempt["wall_seconds"]

    for key in ("campaign.store.db_bytes", "dist.wire.requests",
                "dist.wire.request_s", "dist.wire.unavailable",
                "dist.cold_pass_s", "dist.warm_pass_s",
                "dist.fabric_overhead_s"):
        metrics[key] = extra.get(key, 0.0)

    covered = sum(seconds for name, seconds in own.items()
                  if name != OP_SPAN)
    metrics["obs.covered_ratio"] = _ratio(covered, traced_wall)
    metrics["obs.trace_overhead_ratio"] = _ratio(traced_wall,
                                                 untraced_wall)
    return metrics
