"""N-engine disagreement oracle for differential fuzzing.

:class:`DifferentialOracle` runs every registered strategy on one
design and checks that the verdicts are mutually consistent — not
merely "do the engines print the same word", but:

* every ``VIOLATED`` trace must **replay** through the
  :class:`~repro.sim.simulator.Simulator` — init values match, every
  transition matches, no constraint is violated, and ``bad`` really
  holds at the final cycle;
* every ``PROVEN`` verdict carrying an invariant certificate must
  **re-certify** through :mod:`repro.mc.certcheck`, which shares no
  code with the engines;
* a ``BOUNDED_OK`` at bound *k* contradicts a ``VIOLATED`` at depth
  ≤ *k* even though neither is a full proof.

Disagreement taxonomy (:class:`Disagreement.kind`):

``status_conflict``
    One engine says PROVEN, another VIOLATED.
``depth_conflict``
    BOUNDED_OK at a bound that covers another engine's counterexample
    depth.
``trace_replay_failure``
    A VIOLATED trace the simulator cannot reproduce.
``certificate_failure``
    A PROVEN invariant that fails independent certification.
``engine_error``
    An engine raised on a valid design.

:func:`run_fuzz` is the campaign driver behind ``repro-verify fuzz``:
generate (and periodically mutate) designs, oracle each one, shrink
and bundle any disagreement; the :class:`FuzzReport` it returns
counts the designs checked and carries every disagreement record.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ReproError, SimulationError, TraceError
from repro.ir import expr as E
from repro.ir.system import TransitionSystem
from repro.mc.cache import run_cached
from repro.mc.certcheck import check_certificate
from repro.mc.property import SafetyProperty
from repro.mc.result import CheckResult, Status
from repro.qa.generate import (GeneratedDesign, GeneratorConfig,
                               mutated_design, random_design)
from repro.sim.simulator import Simulator

#: Strategy specs the oracle races by default.  Budgets are deliberately
#: small: fuzz designs are tiny, and an engine that needs more effort
#: than this on a 3-latch design is itself suspect.
DEFAULT_ORACLE_STRATEGIES = (
    "bmc(bound=12)",
    "k_induction(max_k=10)",
    "pdr(max_frames=14, conflict_budget=20000, max_obligations=4000)",
    "pdr_seeded(max_frames=14, conflict_budget=20000, max_obligations=4000)",
    "external(bound=12)",
)


@dataclass
class EngineVerdict:
    """One strategy's answer on one design."""

    strategy: str
    result: CheckResult | None      # None when the engine raised
    error: str = ""

    @property
    def status(self) -> str:
        return self.result.status.value if self.result else "error"


@dataclass
class Disagreement:
    """One classified inconsistency between layers."""

    kind: str
    detail: str
    verdicts: dict[str, str] = field(default_factory=dict)

    def one_line(self) -> str:
        shown = ", ".join(f"{k}={v}" for k, v in self.verdicts.items())
        return f"[{self.kind}] {self.detail} ({shown})"


@dataclass
class OracleReport:
    """All verdicts and disagreements for one design."""

    design: GeneratedDesign
    verdicts: list[EngineVerdict] = field(default_factory=list)
    disagreements: list[Disagreement] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def verdict_map(self) -> dict[str, str]:
        return {v.strategy: v.status for v in self.verdicts}


class DifferentialOracle:
    """Runs the strategy portfolio on a design and cross-checks it."""

    def __init__(self, strategies: tuple[str, ...] | list[str] | None = None):
        self.strategies = tuple(strategies or DEFAULT_ORACLE_STRATEGIES)

    # ------------------------------------------------------------------

    def check(self, system: TransitionSystem, prop: SafetyProperty
              ) -> OracleReport:
        report = OracleReport(GeneratedDesign(system, prop, seed=-1))
        self._run_engines(report, system, prop)
        self._classify(report, system, prop)
        return report

    def check_design(self, design: GeneratedDesign) -> OracleReport:
        report = OracleReport(design)
        self._run_engines(report, design.system, design.prop)
        self._classify(report, design.system, design.prop)
        return report

    # ------------------------------------------------------------------

    def _run_engines(self, report: OracleReport,
                     system: TransitionSystem,
                     prop: SafetyProperty) -> None:
        for spec in self.strategies:
            try:
                result = run_cached(spec, system, prop, {}, cache=None)
                report.verdicts.append(EngineVerdict(spec, result))
            except ReproError as exc:
                report.verdicts.append(
                    EngineVerdict(spec, None, error=str(exc)))
                report.disagreements.append(Disagreement(
                    "engine_error",
                    f"{spec} raised on a valid design: {exc}",
                    report.verdict_map()))

    def _classify(self, report: OracleReport, system: TransitionSystem,
                  prop: SafetyProperty) -> None:
        proven = [v for v in report.verdicts
                  if v.result and v.result.status is Status.PROVEN]
        violated = [v for v in report.verdicts
                    if v.result and v.result.status is Status.VIOLATED]
        bounded = [v for v in report.verdicts
                   if v.result and v.result.status is Status.BOUNDED_OK]

        if proven and violated:
            report.disagreements.append(Disagreement(
                "status_conflict",
                f"{proven[0].strategy} proves {prop.name} while "
                f"{violated[0].strategy} violates it at depth "
                f"{violated[0].result.k}",
                report.verdict_map()))

        for vio in violated:
            for bok in bounded:
                if bok.result.k >= vio.result.k:
                    report.disagreements.append(Disagreement(
                        "depth_conflict",
                        f"{bok.strategy} reports no counterexample up to "
                        f"bound {bok.result.k} but {vio.strategy} finds "
                        f"one at depth {vio.result.k}",
                        report.verdict_map()))
                    break

        for vio in violated:
            problem = replay_trace(system, prop, vio.result)
            if problem is not None:
                report.disagreements.append(Disagreement(
                    "trace_replay_failure",
                    f"{vio.strategy}: {problem}",
                    report.verdict_map()))

        for prf in proven:
            if not prf.result.invariant:
                report.notes.append(
                    f"{prf.strategy} proved {prop.name} without an "
                    "invariant certificate (k-induction proofs carry "
                    "none); not independently re-checked")
                continue
            cert = check_certificate(system, prop, prf.result.invariant)
            if not cert.ok:
                report.disagreements.append(Disagreement(
                    "certificate_failure",
                    f"{prf.strategy}: {cert.one_line()}",
                    report.verdict_map()))


def replay_trace(system: TransitionSystem, prop: SafetyProperty,
                 result: CheckResult) -> str | None:
    """Replay a VIOLATED counterexample; None if it reproduces.

    Checks four things a genuine initial-state-rooted counterexample
    must satisfy: cycle-0 values agree with the init expressions, the
    simulator's transition function reproduces every recorded state,
    no cycle violates a system constraint, and ``bad`` holds at the
    final cycle.
    """
    trace = result.cex
    if trace is None:
        return "VIOLATED verdict carries no counterexample trace"
    if trace.length == 0:
        return "counterexample trace has zero cycles"
    try:
        cycle0 = {name: trace.value(name, 0)
                  for name in list(system.inputs) + list(system.states)}
    except TraceError as exc:
        return f"trace is missing signals: {exc}"
    for name, init in system.init.items():
        expected = E.evaluate(system.resolve_defines(init), cycle0)
        if cycle0[name] != expected:
            return (f"init mismatch: {name} starts at {cycle0[name]}, "
                    f"init expression gives {expected}")

    sim = Simulator(system, check_constraints=True)
    sim.load_state({name: cycle0[name] for name in system.states})
    for t in range(trace.length):
        for name in system.states:
            got = sim.state_values[name]
            want = trace.value(name, t)
            if got != want:
                return (f"transition mismatch at cycle {t}: {name} is "
                        f"{got} in simulation, {want} in trace")
        inputs = {name: trace.value(name, t) for name in system.inputs}
        try:
            sim.step(inputs)
        except SimulationError as exc:
            return f"replay failed at cycle {t}: {exc}"

    final = system.env_with_defines(
        {name: trace.value(name, trace.length - 1)
         for name in list(system.inputs) + list(system.states)})
    if not E.evaluate(system.resolve_defines(prop.bad), final):
        return (f"bad expression is false at final cycle "
                f"{trace.length - 1}")
    if trace.length - 1 < prop.valid_from:
        return (f"counterexample ends at cycle {trace.length - 1}, "
                f"before the property becomes valid "
                f"(valid_from={prop.valid_from})")
    return None


# ---------------------------------------------------------------------------
# Fuzz campaign driver
# ---------------------------------------------------------------------------


@dataclass
class DisagreementRecord:
    """One disagreeing design, with its shrink outcome if any."""

    design_name: str
    seed: int
    disagreements: list[Disagreement]
    mutations: list[str] = field(default_factory=list)
    shrink_steps: int = 0
    bundle_dir: str = ""


@dataclass
class FuzzReport:
    """Outcome of one :func:`run_fuzz` campaign."""

    seed: int
    designs_checked: int = 0
    elapsed_seconds: float = 0.0
    records: list[DisagreementRecord] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    budget_exhausted: bool = False

    @property
    def disagreements(self) -> int:
        return sum(len(r.disagreements) for r in self.records)

    @property
    def designs_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.designs_checked / self.elapsed_seconds

    @property
    def shrink_steps(self) -> int:
        return sum(r.shrink_steps for r in self.records)


#: Every fourth design is a mutation of the previous base design rather
#: than a fresh draw, so the mutation operators get continuous coverage.
_MUTATE_PERIOD = 4


def fuzz_designs(seed: int, count: int,
                 config: GeneratorConfig | None = None):
    """The designs of one fuzz campaign, in order, made on demand:
    seeded random designs, with a mutated variant of the latest one as
    every :data:`_MUTATE_PERIOD`-th."""
    mutation_rng = random.Random((seed << 16) ^ 0xFA22)
    base: GeneratedDesign | None = None
    for i in range(count):
        if base is not None and i % _MUTATE_PERIOD == _MUTATE_PERIOD - 1:
            yield mutated_design(base, mutation_rng)
        else:
            base = random_design(seed * 100_003 + i, config)
            yield base


def run_fuzz(seed: int = 0, count: int = 100,
             budget: float | None = None,
             out_dir: str | Path | None = None,
             oracle: DifferentialOracle | None = None,
             config: GeneratorConfig | None = None,
             shrink: bool = True) -> FuzzReport:
    """Run a differential-fuzz campaign.

    Generates ``count`` designs from ``seed`` (mixing in mutated
    variants every :data:`_MUTATE_PERIOD`-th design), oracles each one,
    and — for every disagreement — shrinks the design and writes a
    replayable repro bundle under ``out_dir``.  ``budget`` caps the
    campaign wall-clock in seconds.
    """
    from repro.qa.shrink import shrink_design, write_repro_bundle

    oracle = oracle or DifferentialOracle()
    report = FuzzReport(seed)
    started = time.monotonic()

    for design in fuzz_designs(seed, count, config):
        if budget is not None and time.monotonic() - started > budget:
            report.budget_exhausted = True
            report.notes.append(
                f"budget of {budget:g}s exhausted after "
                f"{report.designs_checked} designs")
            break

        oracle_report = oracle.check_design(design)
        report.designs_checked += 1
        report.notes.extend(
            f"{design.name}: {note}" for note in oracle_report.notes)
        if oracle_report.ok:
            continue

        record = DisagreementRecord(
            design.name, design.seed, oracle_report.disagreements,
            mutations=[m.name for m in design.mutations])
        if shrink:
            shrunk = shrink_design(design.system, design.prop, oracle)
            record.shrink_steps = shrunk.steps
            if out_dir is not None:
                bundle = write_repro_bundle(
                    Path(out_dir), shrunk, record, oracle)
                record.bundle_dir = str(bundle)
        elif out_dir is not None:
            from repro.qa.shrink import ShrinkResult
            unshrunk = ShrinkResult(design.system, design.prop,
                                    steps=0,
                                    original_name=design.name)
            bundle = write_repro_bundle(Path(out_dir), unshrunk,
                                        record, oracle)
            record.bundle_dir = str(bundle)
        report.records.append(record)

    report.elapsed_seconds = time.monotonic() - started
    return report
