"""IC3/PDR engine tests.

Coverage contract (the PR's acceptance criteria):

* invariant certificates are independently re-certified 1-step
  inductive by k-induction;
* counterexamples replay through the reference simulator as concrete
  initial-state-rooted executions ending in a bad cycle;
* verdict parity pdr-vs-kinduction-vs-bmc across every registry design
  (conclusive verdicts never contradict, and match expectations);
* GenAI/static seeding closes proofs k-induction alone cannot close at
  its default depth;
* a PROVEN certificate survives the cache's disk tier and still
  re-certifies when read back;
* the engine participates in portfolio and campaign scheduling through
  the registry with no layer-specific code.
"""

import pickle
import random
import re

import pytest

from repro.designs import all_designs, get_design
from repro.flow.session import run_campaign
from repro.ir import expr as E
from repro.mc.cache import ResultCache, run_cached
from repro.mc.certcheck import check_certificate
from repro.mc.engine import ProofEngine
from repro.mc.kinduction import KInductionOptions, k_induction
from repro.mc.pdr.engine import PdrOptions, _PdrRun, pdr
from repro.mc.pdr.frames import (FrameMember, FrameTrapezoid, PdrContext,
                                 negate_cube)
from repro.mc.pdr.obligations import generalize_clause
from repro.mc.pdr.seed import (SEED_LIMIT, compile_seed_predicates,
                               gather_seed_predicates)
from repro.mc.property import SafetyProperty
from repro.mc.result import Status
from repro.mc.strategy import (CheckTask, resolve_strategy, run_check_task,
                               strategy_names)
from repro.mc.unroll import Unroller
from repro.campaign.store import ProofStore
from repro.qa import fuzz_designs, replay_trace
from repro.sim.simulator import Simulator
from repro.sva.compile import MonitorContext

#: Tight budgets for sweep-style tests: hard properties give up in
#: about a second instead of grinding, easy ones still close.
FAST = dict(max_frames=20, conflict_budget=3000,
            propagation_budget=400_000, gen_budget=500,
            max_obligations=2000)


def _compile(design_name, prop_name):
    design = get_design(design_name)
    ctx = MonitorContext(design.system())
    spec = design.property_spec(prop_name)
    prop = ctx.add(spec.sva, name=spec.name)
    return design, spec, ctx, prop


def _run_pdr(design_name, prop_name, strategy="pdr", **options):
    _design, _spec, ctx, prop = _compile(design_name, prop_name)
    engine = ProofEngine(ctx.system)
    return engine.check(prop, strategy, **options)


def _init_escapes(frames, clause):
    """Can an initial state falsify ``clause``?  Asked of the solver in
    so many words — the independent reference for the engine's
    (mostly syntactic) initiation check."""
    ctx = frames.ctx
    return ctx.solver.solve(
        list(frames.activation(0)) +
        ctx.cube_assumptions(negate_cube(clause), 0))


class TestRegistry:
    def test_pdr_strategies_registered(self):
        names = strategy_names()
        assert "pdr" in names and "pdr_seeded" in names

    def test_resolve_with_options(self):
        strategy, options = resolve_strategy(
            "pdr(max_frames=7, seeds=('a == b',))")
        assert strategy.name == "pdr"
        assert options == {"max_frames": 7, "seeds": ("a == b",)}
        _strategy, seeded = resolve_strategy("pdr_seeded")
        assert seeded == {"seed_static": True}

    def test_capabilities(self):
        strategy, _ = resolve_strategy("pdr")
        assert strategy.can_prove and strategy.can_refute

    def test_check_task_pickles_and_runs(self):
        """PDR tasks must survive the worker-process boundary."""
        _design, _spec, ctx, prop = _compile("traffic_onehot",
                                             "mutual_exclusion")
        engine = ProofEngine(ctx.system)
        task = CheckTask(key=("t", 0),
                         system=engine.scoped_system(prop), prop=prop,
                         strategy="pdr(max_frames=10)")
        task = pickle.loads(pickle.dumps(task))
        result = run_check_task(task)
        assert result.status is Status.PROVEN
        assert result.invariant


class TestProofsAndCertificates:
    """PDR closes needs-helper properties k-induction cannot, and its
    invariant certificate re-certifies through an independent engine."""

    CASES = [("traffic_onehot", "mutual_exclusion"),
             ("rr_arbiter", "grant_onehot0"),
             ("updown_counter", "upper_bound")]

    @pytest.mark.parametrize("design_name,prop_name", CASES)
    def test_proves_where_default_kinduction_cannot(self, design_name,
                                                    prop_name):
        design, spec, ctx, prop = _compile(design_name, prop_name)
        engine = ProofEngine(ctx.system)
        kind = engine.check(prop, "k_induction", max_k=spec.max_k)
        result = engine.check(prop, "pdr")
        assert result.status is Status.PROVEN
        if spec.needs_helper:
            assert kind.status is Status.UNKNOWN

    @pytest.mark.parametrize("design_name,prop_name", CASES)
    def test_invariant_certified_by_kinduction(self, design_name,
                                               prop_name):
        """The certificate's conjunction must be 1-step inductive *and*
        imply the property — checked by a different engine entirely."""
        _design, _spec, ctx, prop = _compile(design_name, prop_name)
        engine = ProofEngine(ctx.system)
        result = engine.check(prop, "pdr")
        assert result.status is Status.PROVEN and result.invariant
        scoped = engine.scoped_system(prop)
        conjunction = E.bool_and(
            *[scoped.resolve_defines(g) for g in result.invariant])
        certificate = k_induction(
            scoped, SafetyProperty.from_invariant("cert", conjunction),
            KInductionOptions(max_k=1))
        assert certificate.status is Status.PROVEN
        assert certificate.k == 1

    def test_invariant_conjuncts_are_reassumable_lemmas(self):
        """Each certificate conjunct holds in every reachable state, so
        re-assumed as lemmas it lets k-induction close the proof it
        could not close."""
        design, spec, ctx, prop = _compile("traffic_onehot",
                                           "mutual_exclusion")
        engine = ProofEngine(ctx.system)
        stuck = engine.check(prop, "k_induction", max_k=spec.max_k)
        assert stuck.status is Status.UNKNOWN
        certified = engine.check(prop, "pdr")
        assert certified.status is Status.PROVEN and certified.invariant
        closed = engine.prove(prop, max_k=spec.max_k,
                              lemmas=[(good, 0)
                                      for good in certified.invariant])
        assert closed.status is Status.PROVEN

    def test_warmup_property_proves_without_certificate(self):
        """valid_from > 0 goes through the age-counter composition; the
        proof stands but no reusable certificate is emitted."""
        result = _run_pdr("shift_pipe", "stage_consistency")
        assert result.status is Status.PROVEN
        assert result.invariant is None

    def test_stats_threaded(self):
        result = _run_pdr("traffic_onehot", "mutual_exclusion")
        assert result.stats.sat_queries > 0
        assert result.stats.propagations > 0
        effort = result.stats.effort_dict()
        assert set(effort) >= {"conflicts", "decisions", "propagations",
                               "restarts", "learned_clauses"}


class TestCounterexamples:
    def test_cex_replays_in_simulator(self):
        """A PDR refutation is a concrete execution: init-rooted,
        transition-consistent, bad at the final cycle."""
        design, _spec, ctx, prop = _compile("sync_counters_bug",
                                            "counters_equal")
        engine = ProofEngine(ctx.system)
        result = engine.check(prop, "pdr", max_frames=40)
        assert result.status is Status.VIOLATED
        trace = result.cex
        assert trace is not None and trace.length == 17  # bug period
        system = ctx.system
        for name, init_expr in system.init.items():
            assert trace.value(name, 0) == E.evaluate(init_expr, {})
        sim = Simulator(system, check_constraints=False)
        sim.load_state({n: trace.value(n, 0) for n in system.states})
        for t in range(trace.length):
            inputs = {n: trace.value(n, t) for n in system.inputs}
            snap = sim.peek(inputs)
            for name in system.states:
                assert snap[name] == trace.value(name, t), (name, t)
            sim.step(inputs)
        final_env = {n: trace.value(n, trace.length - 1)
                     for n in list(system.inputs) + list(system.states)}
        bad = system.resolve_defines(prop.bad)
        assert E.evaluate(bad, final_env) == 1

    def test_short_cex(self):
        result = _run_pdr("counter_bank", "ring_no_msb", **FAST)
        assert result.status is Status.VIOLATED
        assert result.cex is not None
        assert result.k == result.cex.length - 1


class TestVerdictParity:
    """pdr vs k-induction vs bmc across every registry design: no two
    engines may ever disagree on a conclusive verdict, and conclusive
    verdicts must match the design's ground truth."""

    #: What the sweep budgets settle (every other case is UNKNOWN);
    #: neither how PDR asks its questions nor how it stamps its one step
    #: may cost or flip a verdict.
    SETTLED = {
        ("sync_counters_bug", "counters_equal"),
        ("updown_counter", "upper_bound"), ("updown_counter", "never_top"),
        ("alu_accum", "flag_consistent"), ("lfsr16", "never_zero"),
        ("shift_pipe", "latency3"), ("shift_pipe", "stage_consistency"),
        ("fifo_ctrl", "not_full_and_empty"),
        ("rr_arbiter", "grant_onehot0"),
        ("rr_arbiter", "grant_subset_req"), ("rr_arbiter", "ptr_onehot"),
        ("traffic_onehot", "mutual_exclusion"),
        ("traffic_onehot", "state_onehot"),
        ("counter_bank", "a_pair_equal"), ("counter_bank", "b_pair_equal"),
        ("counter_bank", "c_pair_equal"), ("counter_bank", "ring_onehot"),
        ("counter_bank", "sat_bound"), ("counter_bank", "ring_no_msb"),
    }

    def test_every_registry_design(self):
        settled = set()
        for design in all_designs():
            ctx = MonitorContext(design.system())
            compiled = [(spec, ctx.add(spec.sva, name=spec.name))
                        for spec in design.properties]
            engine = ProofEngine(ctx.system)
            for spec, prop in compiled:
                case = (design.name, spec.name)
                scoped = engine.scoped_system(prop)
                run = _PdrRun(scoped, prop, PdrOptions(**FAST), [])
                pdr_result = run.execute()
                # Whatever the verdict, no frame may have lost an
                # initial state: every ledger clause contains init.
                for level in run.frames.levels:
                    for member in level:
                        if member.clause is not None:
                            assert _init_escapes(
                                run.frames, member.clause) is False, \
                                (case, member.describe())
                # An inconclusive PDR run cannot contradict anything;
                # skip the cross-engine work (the full-depth
                # expectations are covered by the design-suite tests).
                if not pdr_result.status.conclusive:
                    continue
                settled.add(case)
                # Conclusive verdicts stand on their own evidence...
                if pdr_result.status is Status.VIOLATED:
                    assert replay_trace(scoped, prop, pdr_result) is None, \
                        case
                elif pdr_result.invariant:
                    report = check_certificate(scoped, prop,
                                               pdr_result.invariant)
                    assert report.ok, (case, report.one_line())
                # ... match ground truth ...
                expected = Status.VIOLATED \
                    if spec.expect == "violated" else Status.PROVEN
                assert pdr_result.status is expected, case
                # ... and never contradict the other engines, at any
                # bound (shallow runs keep the sweep fast).
                kind = engine.check(prop, "k_induction",
                                    max_k=min(spec.max_k, 2))
                bounded = engine.check(prop, "bmc", bound=4)
                if pdr_result.status is Status.PROVEN:
                    assert kind.status is not Status.VIOLATED, case
                    assert bounded.status is not Status.VIOLATED, case
                else:
                    assert kind.status is not Status.PROVEN, case
        # The engine is not vacuous and no status moved: exactly what
        # the tight sweep budgets settled, they settle.
        assert settled == self.SETTLED


class TestFrameStampParity:
    """PDR's one step is stamped by :class:`~repro.mc.frame.FrameSolver`
    like every other engine's frames; the E9 rows (k-induction, plain
    and seeded PDR under the E9 budgets) keep their statuses, row for
    row, and every invariant certificate re-checks."""

    E9_BUDGETS = dict(max_frames=18, conflict_budget=3000,
                      propagation_budget=500_000, gen_budget=500,
                      max_obligations=2000)
    #: (design, property) -> (k_induction, pdr, pdr_seeded) status.
    E9_ROWS = {
        ("traffic_onehot", "mutual_exclusion"):
            ("unknown", "proven", "proven"),
        ("rr_arbiter", "grant_onehot0"): ("unknown", "proven", "proven"),
        ("lfsr16", "never_zero"): ("proven", "proven", "proven"),
        ("sync_counters", "equal_count"): ("unknown", "unknown", "proven"),
        ("fifo_ctrl", "count_matches_pointers"):
            ("proven", "unknown", "proven"),
    }

    def test_e9_rows_keep_their_statuses(self):
        for (design_name, prop_name), expected in self.E9_ROWS.items():
            _design, spec, ctx, prop = _compile(design_name, prop_name)
            engine = ProofEngine(ctx.system)
            statuses = []
            for strategy, options in (
                    ("k_induction", {"max_k": spec.max_k}),
                    ("pdr", self.E9_BUDGETS),
                    ("pdr_seeded", self.E9_BUDGETS)):
                result = engine.check(prop, strategy, **options)
                statuses.append(result.status.value)
                if result.invariant:
                    report = check_certificate(engine.scoped_system(prop),
                                               prop, result.invariant)
                    assert report.ok, (design_name, strategy,
                                       report.one_line())
            assert tuple(statuses) == expected, (design_name, prop_name)


class TestFramedStep:
    """Differential: with every time-0 state and input bit pinned on a
    :class:`PdrContext`, the bound ``state@1`` reads the next-state
    functions' values (``E.evaluate``), its literals are those of the
    expression-level unrolling (``blast(Unroller.at_time(next, 0))``),
    and the solver refutes every other successor."""

    @staticmethod
    def _systems():
        for design in all_designs():
            yield design.name, design.system()
        for design in fuzz_designs(1, 60):
            yield design.name, design.system

    def test_state_at_1_is_the_next_state_function(self):
        rng = random.Random(29)
        stepped = 0
        for name, system in self._systems():
            ctx = PdrContext(system)
            unroller = Unroller(system)
            for state, next_expr in system.next.items():
                assert ctx.state_bit_lits(state, 1) == ctx.blaster.blast(
                    unroller.at_time(next_expr, 0)), (name, state)
            signals = {**system.inputs, **system.states}
            for _ in range(3):
                env = {sig: rng.getrandbits(var.width)
                       for sig, var in signals.items()}
                pins = []
                for sig, var in signals.items():
                    for i, lit in enumerate(
                            ctx.blaster.blast(var, frame=0)):
                        d = ctx.cnf.lit_to_dimacs(lit)
                        pins.append(d if (env[sig] >> i) & 1 else -d)
                legal = all(E.evaluate(c, env)
                            for c in system.constraints)
                assert ctx.solve_limited(pins) is legal, name
                if not legal:
                    continue
                stepped += 1
                expected = {state: E.evaluate(next_expr, env)
                            for state, next_expr in system.next.items()}
                for state, value in expected.items():
                    assert ctx.timed_value(state, 1) == value, (name, state)
                if expected:
                    other = E.bool_or(*(
                        E.ne(system.states[state],
                             E.const(value, system.states[state].width))
                        for state, value in expected.items()))
                    assert ctx.solve_limited(
                        pins + [ctx.assumption_at(other, 1)]) is False, name
        assert stepped > 150


class TestSeeding:
    def test_static_seeding_closes_sync_counters(self):
        """The acceptance case: 32-bit lock-step counters.  k-induction
        cannot close the implication at its default depth; statically
        seeded PDR admits `count1 == count2` into frame 1 and converges
        immediately."""
        design, spec, ctx, prop = _compile("sync_counters",
                                           "equal_count")
        engine = ProofEngine(ctx.system)
        kind = engine.check(prop, "k_induction", max_k=spec.max_k)
        assert kind.status is Status.UNKNOWN
        seeded = engine.check(prop, "pdr_seeded", max_frames=8)
        assert seeded.status is Status.PROVEN
        assert seeded.invariant
        match = re.search(r"(\d+) seeded", seeded.detail)
        assert match and int(match.group(1)) >= 1

    def test_explicit_seeds_option(self):
        result = _run_pdr("sync_counters", "equal_count",
                          max_frames=8, seeds=("count1 == count2",))
        assert result.status is Status.PROVEN

    def test_bogus_seeds_are_harmless(self):
        """Unparseable, unknown-signal, input-referencing, and false
        seeds must all be rejected by normalization/admission without
        affecting soundness."""
        result = _run_pdr(
            "sync_counters", "equal_count", max_frames=3,
            seeds=("count1 == nonexistent", "count1 <",
                   "count1 != count2",       # false at reset: rejected
                   "rst == 1'b0"))           # input-only: rejected
        assert result.status in (Status.UNKNOWN, Status.PROVEN)
        assert "0 seeded" in result.detail or \
            result.status is Status.UNKNOWN

    def test_seed_normalization_rules(self):
        design = get_design("sync_counters")
        system = design.system()
        good = compile_seed_predicates(system, ["count1 == count2"])
        assert len(good) == 1 and good[0].width == 1
        rejected = compile_seed_predicates(
            system, ["count1 == $past(count2)",   # needs monitor state
                     "rst == 1'b0",               # ranges over an input
                     "count1 == bogus",           # unknown signal
                     "count1 == "])               # syntax error
        assert rejected == []

    def test_gather_dedupes_and_caps(self):
        """A repeated seed counts once, explicit seeds come before the
        static candidates, and the list is cut at :data:`SEED_LIMIT`."""
        system = get_design("sync_counters").system()
        explicit = ("count1 == count2",) + tuple(
            f"count1 != 8'd{i}" for i in range(SEED_LIMIT))
        preds = gather_seed_predicates(
            system, seeds=(explicit[0],) + explicit, static=True)
        assert len(preds) == SEED_LIMIT
        assert len({id(p) for p in preds}) == len(preds)
        assert preds == compile_seed_predicates(
            system, list(explicit))[:SEED_LIMIT]


class TestCachingAndLayers:
    @pytest.mark.parametrize("tier", ["memory", "disk"])
    def test_run_cached_round_trip_preserves_invariant(self, tier,
                                                       tmp_path):
        """A PROVEN certificate comes back from either cache tier with
        the same conjuncts; read back from the proof store it still
        re-certifies (later runs assume it as lemmas)."""
        _design, _spec, ctx, prop = _compile("traffic_onehot",
                                             "mutual_exclusion")
        engine = ProofEngine(ctx.system)
        scoped = engine.scoped_system(prop)
        store = ProofStore.open(tmp_path) if tier == "disk" else None
        cache = ResultCache(backing=store)
        first = run_cached("pdr", scoped, prop, {}, cache=cache)
        if store is not None:
            cache = ResultCache(backing=store)   # empty memory tier
        hit = run_cached("pdr", scoped, prop, {}, cache=cache)
        assert cache.stats.hits == 1
        assert cache.stats.disk_hits == (1 if store is not None else 0)
        assert hit.status is Status.PROVEN
        assert [E.to_sexpr(g) for g in hit.invariant] == \
            [E.to_sexpr(g) for g in first.invariant]
        report = check_certificate(scoped, prop, hit.invariant)
        assert report.ok, report.one_line()
        if store is not None:
            store.close()

    def test_campaign_with_pdr_strategy(self, tmp_path):
        """`pdr` slots into a campaign via the registry alone — same
        verdicts the ground truth demands, effort counters in the
        report JSON."""
        report = run_campaign(
            designs=["traffic_onehot", "sync_counters_bug"],
            cache_dir=tmp_path, strategies=["pdr", "bmc"])
        assert report.mismatches == 0
        rows = report.to_dict()["results"]
        assert any(r["strategy"].startswith("pdr") for r in rows)
        assert all("effort" in r for r in rows)
        solver_rows = [r for r in rows if not r["from_cache"]]
        assert any(r["effort"].get("propagations", 0) > 0
                   for r in solver_rows)
        assert report.effort_totals.get("propagations", 0) > 0
        # A warm rerun spends (almost) nothing: cached rows' recorded
        # effort must not be re-counted as this run's work.
        warm = run_campaign(
            designs=["traffic_onehot", "sync_counters_bug"],
            cache_dir=tmp_path, strategies=["pdr", "bmc"])
        cold_total = report.effort_totals.get("propagations", 0)
        assert warm.effort_totals.get("propagations", 0) < cold_total

    def test_distributed_campaign_with_pdr(self, tmp_path):
        """The acceptance criterion's distributed leg: a worker process
        claims and solves PDR jobs unchanged."""
        report = run_campaign(
            designs=["traffic_onehot"], cache_dir=tmp_path,
            strategies=["pdr", "bmc"], workers=1,
            lease_seconds=20.0, wall_timeout=120.0)
        assert report.mismatches == 0
        assert report.workers == 1
        statuses = {(r.design, r.property_name): r.status
                    for r in report.rows}
        assert statuses[("traffic_onehot", "mutual_exclusion")] == \
            "proven"


class TestDirectApi:
    def test_pdr_function_signature(self):
        """The bare pdr() entry point works without the registry."""
        _design, _spec, ctx, prop = _compile("updown_counter",
                                             "never_top")
        engine = ProofEngine(ctx.system)
        result = pdr(engine.scoped_system(prop), prop,
                     PdrOptions(max_frames=10))
        assert result.status is Status.PROVEN

    def test_lemmas_strengthen_frames(self):
        """A proven lemma passed into pdr() prunes the search: the
        seeded-style equality makes the implication converge fast."""
        design, _spec, ctx, prop = _compile("sync_counters",
                                            "equal_count")
        engine = ProofEngine(ctx.system)
        scoped = engine.scoped_system(prop)
        count1 = scoped.states["count1"]
        count2 = scoped.states["count2"]
        lemma = E.eq(count1, count2)
        result = pdr(scoped, prop, PdrOptions(max_frames=5),
                     lemmas=[(lemma, 0)])
        assert result.status is Status.PROVEN


class TestLiftingAndSubsumption:
    """Ternary-simulation cube lifting and the frame-ledger subsumption
    sweep: both are pure accelerators, so verdicts must be invariant
    under the ``lift_cubes`` switch and the ledger must only ever shed
    redundant members."""

    @pytest.mark.parametrize("design_name,prop_name", [
        ("traffic_onehot", "mutual_exclusion"),
        ("lfsr16", "never_zero"),
        ("updown_counter", "never_top"),
    ])
    def test_lift_on_off_verdict_parity(self, design_name, prop_name):
        on = _run_pdr(design_name, prop_name, lift_cubes=True, **FAST)
        off = _run_pdr(design_name, prop_name, lift_cubes=False, **FAST)
        assert on.status is Status.PROVEN
        assert off.status is Status.PROVEN

    def test_lift_on_off_parity_on_violation(self):
        on = _run_pdr("sync_counters_bug", "counters_equal",
                      lift_cubes=True, **FAST)
        off = _run_pdr("sync_counters_bug", "counters_equal",
                       lift_cubes=False, **FAST)
        assert on.status is Status.VIOLATED
        assert off.status is Status.VIOLATED
        assert on.cex is not None and off.cex is not None
        assert len(on.cex.steps) == len(off.cex.steps)

    def test_lifter_drops_bits_on_wide_predecessors(self):
        """On the lock-step counters most state bits are irrelevant to
        any single blocked cube, so lifting must shed some."""
        from repro.hdl.elaborate import elaborate
        design = get_design("sync_counters")
        system = elaborate(design.rtl, params={"W": 4},
                           top="sync_counters")
        ctx = MonitorContext(system)
        spec = design.property_spec("equal_count")
        prop = ctx.add(spec.sva, name=spec.name)
        run = _PdrRun(ctx.system, prop, PdrOptions(**FAST), [])
        run.execute()
        assert run.lifter is not None
        assert run.lifter.lifts > 0
        assert run.lifter.dropped_bits > 0

    def test_subsumption_ledger(self, counter_system):
        """The ledger keeps only the strongest clause per region: a new
        subset clause evicts weaker ones below it, and a new superset
        clause covered by an equal-or-wider member is skipped."""
        ctx = PdrContext(counter_system)
        frames = FrameTrapezoid(ctx)
        frames.add_frame()  # levels 0..2
        wide = FrameMember(clause=(("count", 0, 0), ("count", 1, 0)))
        narrow = FrameMember(clause=(("count", 0, 0),))
        frames.add_member(wide, 1)
        assert wide in frames.levels[1]
        # The strictly stronger clause evicts the weaker one at <= level.
        frames.add_member(narrow, 1)
        assert wide not in frames.levels[1]
        assert narrow in frames.levels[1]
        # A clause subsumed by an equal-or-wider-level member is skipped.
        frames.add_member(wide, 1)
        assert wide not in frames.levels[1]
        # Same clause again: subsumed by itself, not duplicated.
        frames.add_member(narrow, 1)
        assert frames.levels[1].count(narrow) == 1
        # Subsumption looks upward too: a member living at level 2
        # blocks weaker additions at level 1.
        other = FrameMember(clause=(("count", 2, 0),))
        wide_other = FrameMember(clause=(("count", 2, 0), ("count", 3, 0)))
        frames.add_member(other, 2)
        frames.add_member(wide_other, 1)
        assert wide_other not in frames.levels[1]
        # But a stronger clause at a *lower* level never evicts the
        # wider-coverage copy above it.
        frames.add_member(FrameMember(clause=(("count", 3, 0),)), 1)
        assert other in frames.levels[2]


class TestInitiation:
    def test_syntactic_answer_equals_sat_probe_on_fuzz_systems(self):
        """`contains_init` answers most questions from constant reset
        bits alone; on the first 100 designs of `fuzz --seed 0` (a
        quarter of their registers uninitialised) every answer — the
        syntactic ones and the fallback's — is the solver's."""
        rng = random.Random(0)
        asked = syntactic = 0
        for design in fuzz_designs(0, 100):
            ctx = PdrContext(design.system)
            frames = FrameTrapezoid(ctx)
            bits = [(name, i) for name, v in design.system.states.items()
                    for i in range(v.width)]
            for _ in range(12):
                chosen = rng.sample(bits, rng.randint(1, min(4, len(bits))))
                clause = tuple((name, bit, rng.randrange(2))
                               for name, bit in chosen)
                probes = ctx.query_mix["initiation"]
                answer = frames.contains_init(clause)
                syntactic += ctx.query_mix["initiation"] == probes
                asked += 1
                assert answer == (_init_escapes(frames, clause) is False), \
                    (design.name, clause)
        assert syntactic > asked // 2 and syntactic < asked

    def test_constant_init_needs_no_solver(self, sync_counters_system):
        ctx = PdrContext(sync_counters_system)
        frames = FrameTrapezoid(ctx)
        assert frames.contains_init((("count1", 0, 1), ("count2", 3, 0)))
        assert not frames.contains_init((("count1", 0, 1), ("count2", 3, 1)))
        assert frames.init_anchor(
            (("count1", 0, 1), ("count2", 3, 0))) == ("count2", 3, 0)
        assert ctx.queries == 0


class TestPushMemo:
    """A failed push remembers the state that defeated it and is not
    asked again while that state is still in the frame."""

    @staticmethod
    def _frames(system):
        ctx = PdrContext(system)
        frames = FrameTrapezoid(ctx)
        frames.add_frame()      # levels 0..2: propagate probes level 1
        return ctx, frames

    def test_skipped_then_reprobed_once_the_witness_is_blocked(
            self, counter_system):
        ctx, frames = self._frames(counter_system)
        below_8 = FrameMember(clause=(("count", 3, 0),))
        frames.add_member(below_8, 1)
        # 7 steps to 8: the push fails, and 7 is the state to remember.
        assert frames.propagate() is None
        assert (ctx.query_mix["push"], ctx.pushes_skipped) == (1, 0)
        assert frames.propagate() is None
        assert frames.propagate() is None
        assert (ctx.query_mix["push"], ctx.pushes_skipped) == (1, 2)
        assert below_8 in frames.levels[1]
        # `count` even excludes 7, so the solver is asked again — and
        # among even counts below 8 the push goes through.
        even = FrameMember(clause=(("count", 0, 0),))
        frames.add_member(even, 1)
        assert frames.propagate() is None
        assert below_8 in frames.levels[2] and even in frames.levels[1]
        assert (ctx.query_mix["push"], ctx.pushes_skipped) == (3, 2)
        # `even` itself failed (0 steps to 1) and is skipped from now on.
        assert frames.propagate() is None
        assert (ctx.query_mix["push"], ctx.pushes_skipped) == (3, 3)

    def test_never_trusted_beside_a_seeded_predicate(self, counter_system):
        ctx, frames = self._frames(counter_system)
        count = counter_system.states["count"]
        frames.add_member(FrameMember(
            pred=E.ne(count, E.const(15, 4)), seeded=True), 2)
        below_8 = FrameMember(clause=(("count", 3, 0),))
        frames.add_member(below_8, 1)
        for asked in (1, 2, 3):
            assert frames.propagate() is None
            assert (ctx.query_mix["push"], ctx.pushes_skipped) == (asked, 0)

    def test_subsumed_member_takes_its_memo_along(self, counter_system):
        ctx, frames = self._frames(counter_system)
        wide = FrameMember(clause=(("count", 3, 0), ("count", 2, 0)))
        frames.add_member(wide, 1)          # below 12: 11 steps to 12
        frames.propagate()
        assert wide in frames._push_witness
        frames.add_member(FrameMember(clause=(("count", 3, 0),)), 1)
        assert wide not in frames.levels[1]
        assert wide not in frames._push_witness


class TestCoreGeneralization:
    def test_detail_names_the_literals_cores_dropped(self):
        """What generalization shed through cores is in the result's
        detail, beside the generalize queries that shed it."""
        _design, _spec, ctx, prop = _compile("traffic_onehot",
                                             "mutual_exclusion")
        run = _PdrRun(ctx.system, prop, PdrOptions(), [])
        result = run.execute()
        dropped = run.ctx.core_literals_dropped
        assert result.status is Status.PROVEN and dropped > 0
        generalized = run.ctx.query_mix["generalize"]
        assert f"{generalized} generalize ({dropped} core literals " \
            f"dropped)" in result.detail

    def test_blocked_cube_shrinks_to_an_inductive_init_containing_clause(
            self, sync_counters_system):
        """One obligation, blocked at level 1, by hand: the clause that
        comes back is a sub-clause of ¬cube that init satisfies and
        F_0 ∧ c ∧ T carries to c' — each shown by a plain query."""
        ctx = PdrContext(sync_counters_system)
        frames = FrameTrapezoid(ctx)
        # count1 = 5, count2 = 9: not one step from reset.
        cube = tuple((name, bit, (value >> bit) & 1)
                     for name, value in (("count1", 5), ("count2", 9))
                     for bit in range(8))
        guard = ctx.new_guard()
        ctx.guarded_clause(guard, negate_cube(cube), 0)
        assert ctx.solve(list(frames.activation(0)) + [guard] +
                         ctx.cube_assumptions(cube, 1),
                         "consecution") is False
        core = ctx.refuted_part(cube, 1)
        ctx.retire_guard(guard)
        assert 0 < len(core) < len(cube)
        clause = generalize_clause(ctx, frames, cube, core, 1)
        assert set(clause) <= set(negate_cube(cube))
        assert len(clause) <= len(core)
        assert ctx.core_literals_dropped >= len(cube) - len(core)
        assert _init_escapes(frames, clause) is False
        check = ctx.new_guard()
        ctx.guarded_clause(check, clause, 0)
        assert ctx.solver.solve(
            list(frames.activation(0)) + [check] +
            ctx.cube_assumptions(negate_cube(clause), 1)) is False
