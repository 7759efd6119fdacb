"""Uniformly-invokable check strategies and their registry.

Every way the system can answer "does this property hold?" — plain BMC,
the budgeted BMC probe, k-induction, and k-induction with the simple-path
constraint — is wrapped as a :class:`Strategy`: a stateless, picklable
object with one ``run(system, prop, lemmas, **options)`` entry point
returning the usual :class:`~repro.mc.result.CheckResult`.  The registry
maps *spec strings* like ``"bmc"`` or ``"k_induction(simple_path=True)"``
to a strategy plus bound options, so schedulers, the CLI, and the result
cache all speak the same vocabulary.

A :class:`CheckTask` bundles one concrete invocation (system + property +
strategy spec + lemmas) into a picklable unit; :func:`run_check_task` is
the module-level entry point multiprocessing workers import and execute.
"""

from __future__ import annotations

import ast as _pyast
import inspect as _inspect
import re
from dataclasses import dataclass, field
from functools import lru_cache as _lru_cache
from typing import Mapping, Protocol, runtime_checkable

from repro.errors import ReproError
from repro.ir import expr as E
from repro.ir.system import TransitionSystem
from repro.mc.bmc import bmc, bmc_probe
from repro.mc.kinduction import KInductionOptions, k_induction
from repro.mc.property import SafetyProperty
from repro.mc.result import CheckResult, ProofStats, Status
from repro.obs import journal as _journal


class StrategyError(ReproError):
    """Unknown strategy name or malformed strategy spec/options."""


Lemmas = list[tuple[E.Expr, int]]


@runtime_checkable
class Strategy(Protocol):
    """One way of checking a safety property.

    ``can_prove``/``can_refute`` describe which *conclusive* verdicts the
    strategy can produce; portfolio scheduling uses them to assemble
    complementary race sets (a prover plus a refuter covers both
    outcomes of an undecided property).
    """

    name: str
    can_prove: bool
    can_refute: bool

    def run(self, system: TransitionSystem, prop: SafetyProperty,
            lemmas: Lemmas | None = None, **options) -> CheckResult:
        ...


@dataclass(frozen=True)
class BmcStrategy:
    """Bounded counterexample search: refutes, never proves."""

    name: str = "bmc"
    can_prove: bool = False
    can_refute: bool = True

    def run(self, system: TransitionSystem, prop: SafetyProperty,
            lemmas: Lemmas | None = None, *, bound: int = 20,
            conflict_budget: int | None = None) -> CheckResult:
        return bmc(system, prop, bound, lemmas=lemmas,
                   conflict_budget=conflict_budget)


@dataclass(frozen=True)
class BmcProbeStrategy:
    """Single-shot budgeted bug probe (cheap triage, never a proof)."""

    name: str = "bmc_probe"
    can_prove: bool = False
    can_refute: bool = True

    def run(self, system: TransitionSystem, prop: SafetyProperty,
            lemmas: Lemmas | None = None, *, bound: int = 20,
            conflict_budget: int = 4000) -> CheckResult:
        return bmc_probe(system, prop, bound, lemmas=lemmas,
                         conflict_budget=conflict_budget)


@dataclass(frozen=True)
class KInductionStrategy:
    """k-induction: proves, and refutes via its base case."""

    name: str = "k_induction"
    can_prove: bool = True
    can_refute: bool = True

    def run(self, system: TransitionSystem, prop: SafetyProperty,
            lemmas: Lemmas | None = None, *, max_k: int = 10,
            simple_path: bool = False,
            keep_last_step_cex: bool = True) -> CheckResult:
        options = KInductionOptions(max_k=max_k, simple_path=simple_path,
                                    keep_last_step_cex=keep_last_step_cex)
        return k_induction(system, prop, options, lemmas=lemmas)


@dataclass(frozen=True)
class PdrStrategy:
    """IC3/PDR: proves with an invariant certificate, refutes with a
    real trace.  Depth is measured in *frames*, not unrolling steps, so
    the k-induction family's ``max_k`` deliberately does not apply —
    bound it with ``max_frames`` in the spec instead
    (``"pdr(max_frames=12)"``).

    The ``seed_*`` options pre-load frame 1 with candidate invariants
    (see :mod:`repro.mc.pdr.seed`); ``pdr_seeded`` is the registered
    variant with static GenAI synthesis seeding on by default."""

    name: str = "pdr"
    can_prove: bool = True
    can_refute: bool = True

    @staticmethod
    def cacheable(options: Mapping) -> bool:
        """Store-seeded runs are not cacheable: their outcome depends
        on the proof store's *contents*, which the query key cannot
        fingerprint — a cached early UNKNOWN would otherwise pin the
        property forever and defeat cross-run seed mining."""
        return options.get("seed_store_dir") is None

    def run(self, system: TransitionSystem, prop: SafetyProperty,
            lemmas: Lemmas | None = None, *, max_frames: int = 25,
            conflict_budget: int | None = 50_000,
            propagation_budget: int | None = 5_000_000,
            gen_budget: int | None = 2000,
            max_obligations: int = 20_000,
            seeds: tuple = (),
            seed_static: bool = False,
            seed_store_dir: str | None = None,
            seed_limit: int = 16,
            lift_cubes: bool = True) -> CheckResult:
        from repro.mc.pdr import PdrOptions, pdr
        options = PdrOptions(
            max_frames=max_frames, conflict_budget=conflict_budget,
            propagation_budget=propagation_budget,
            gen_budget=gen_budget, max_obligations=max_obligations,
            seeds=tuple(seeds), seed_static=seed_static,
            seed_store_dir=seed_store_dir, seed_limit=seed_limit,
            lift_cubes=lift_cubes)
        return pdr(system, prop, options, lemmas=lemmas)


@dataclass(frozen=True)
class ExternalBmcStrategy:
    """Bounded counterexample search on an installed external SAT binary.

    The BMC loop runs unchanged over a subprocess-backed frame solver
    (see :mod:`repro.sat.external`): each depth's query is piped through
    the DIMACS bridge to an auto-detected binary (``kissat``,
    ``minisat``, ...; override with ``binary=`` or ``REPRO_SAT_BINARY``).
    SAT answers are validated against the sent clauses before a trace is
    extracted, so a broken binary fails loudly.  With no binary
    installed the verdict is a clean UNKNOWN, which every racing layer
    already treats as "keep going" — registering the strategy is
    therefore always safe, and it stays out of the default portfolio.
    """

    name: str = "external"
    can_prove: bool = False
    can_refute: bool = True

    @staticmethod
    def cacheable(options: Mapping) -> bool:
        """Never cacheable: the verdict depends on which (if any)
        binary is installed, which the query key cannot fingerprint —
        a cached UNKNOWN from a binary-less machine would otherwise pin
        the property on machines that do have one."""
        return False

    def run(self, system: TransitionSystem, prop: SafetyProperty,
            lemmas: Lemmas | None = None, *, bound: int = 20,
            binary: str | None = None,
            timeout_s: float | None = None) -> CheckResult:
        from repro.sat.external import SubprocessSolver, find_external_solver
        spec = find_external_solver(binary)
        if spec is None:
            wanted = binary or "auto-detect"
            return CheckResult(
                prop.name, Status.UNKNOWN, k=0, stats=ProofStats(),
                detail=f"no external SAT binary available ({wanted})")
        result = bmc(system, prop, bound, lemmas=lemmas,
                     solver=SubprocessSolver(spec, timeout_s=timeout_s))
        result.detail = (f"[{spec.name or spec.path}] "
                         f"{result.detail}" if result.detail
                         else f"via {spec.name or spec.path}")
        return result


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

# name -> (strategy, default option overrides baked into that name)
_REGISTRY: dict[str, tuple[Strategy, dict]] = {}


def register_strategy(strategy: Strategy,
                      name: str | None = None,
                      defaults: Mapping | None = None,
                      replace: bool = False) -> None:
    """Register ``strategy`` under ``name`` (default: its own name)."""
    key = name or strategy.name
    if key in _REGISTRY and not replace:
        raise StrategyError(f"strategy {key!r} already registered")
    _REGISTRY[key] = (strategy, dict(defaults or {}))


def get_strategy(name: str) -> Strategy:
    """The registered strategy object for a bare name (no option spec)."""
    try:
        return _REGISTRY[name][0]
    except KeyError:
        raise StrategyError(
            f"unknown strategy {name!r}; available: {strategy_names()}")


def strategy_names() -> list[str]:
    """All registered strategy names, stable order."""
    return list(_REGISTRY)


_SPEC_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:\((.*)\))?\s*$")


def spec_name(spec: str) -> str:
    """The bare registry name of a spec (``"bmc(bound=6)"`` -> ``"bmc"``).

    The one spelling every layer shares: history rows and ledger
    provenance key on it, so differently-parameterized runs of one
    strategy pool their evidence.  A string that is not a spec at all
    (the ``"none"`` of a justice outcome) is returned unchanged.
    """
    m = _SPEC_RE.match(spec)
    return m.group(1) if m else spec


def resolve_strategy(spec: str) -> tuple[Strategy, dict]:
    """Parse ``"name"`` or ``"name(key=value, ...)"`` into (strategy, options).

    Option values are Python literals (``max_k=3``, ``simple_path=True``).
    Options written in the spec override the name's registered defaults.
    """
    m = _SPEC_RE.match(spec)
    if m is None:
        raise StrategyError(f"malformed strategy spec {spec!r}")
    name, arg_text = m.group(1), m.group(2)
    if name not in _REGISTRY:
        raise StrategyError(
            f"unknown strategy {name!r}; available: {strategy_names()}")
    strategy, defaults = _REGISTRY[name]
    options = dict(defaults)
    if arg_text and arg_text.strip():
        try:
            call = _pyast.parse(f"_({arg_text})", mode="eval").body
            if not isinstance(call, _pyast.Call) or call.args:
                raise ValueError("options must be key=value pairs")
            for kw in call.keywords:
                if kw.arg is None:
                    raise ValueError("**kwargs not allowed")
                options[kw.arg] = _pyast.literal_eval(kw.value)
        except (SyntaxError, ValueError) as exc:
            raise StrategyError(
                f"bad options in strategy spec {spec!r}: {exc}")
    return strategy, options


register_strategy(BmcStrategy())
register_strategy(BmcProbeStrategy())
register_strategy(KInductionStrategy())
# The simple-path variant is its own portfolio entry: complete for finite
# systems, quadratically more clauses — worth racing, not defaulting.
register_strategy(KInductionStrategy(), name="k_induction_sp",
                  defaults={"simple_path": True})
register_strategy(PdrStrategy())
# Seeded PDR pre-loads frames with GenAI-synthesized candidate lemmas
# (and store-mined invariants when seed_store_dir points at a campaign
# cache): its own registry entry so adaptive selection can learn when
# seeding pays for a design family.
register_strategy(PdrStrategy(), name="pdr_seeded",
                  defaults={"seed_static": True})
# The external-binary BMC racer: opt-in (never in the default
# portfolio), degrades to UNKNOWN when no binary is installed, so any
# layer may include it in a race unconditionally.
register_strategy(ExternalBmcStrategy())


# ---------------------------------------------------------------------------
# Picklable check tasks (the scheduler/worker currency)
# ---------------------------------------------------------------------------

@dataclass
class CheckTask:
    """One concrete check invocation, shippable to a worker process.

    ``key`` is scheduler-private correlation data (e.g. ``(group, slot)``);
    it rides along untouched.
    """

    key: tuple
    system: TransitionSystem
    prop: SafetyProperty
    strategy: str                       # spec string, e.g. "bmc(bound=12)"
    options: dict = field(default_factory=dict)   # overrides on the spec
    lemmas: Lemmas = field(default_factory=list)
    #: Journal pointer of the dispatching span, so pool workers join
    #: the stream and parent their "check" records under it (None when
    #: no journal is configured).
    trace: _journal.TraceContext | None = None


@_lru_cache(maxsize=None)
def _signature_defaults(strategy: Strategy) -> tuple[tuple[str, object], ...]:
    sig = _inspect.signature(strategy.run)
    return tuple((name, p.default) for name, p in sig.parameters.items()
                 if p.kind is p.KEYWORD_ONLY)


def strategy_option_names(strategy: Strategy) -> frozenset[str]:
    """The keyword options ``strategy.run`` accepts.

    Depth mapping (:func:`~repro.mc.portfolio.depth_options`) uses this
    to apply caller limits only where they exist — PDR, for example,
    has no ``max_k``.
    """
    return frozenset(name for name, _default
                     in _signature_defaults(strategy))


def canonical_options(strategy: Strategy, options: Mapping) -> dict:
    """Options as the strategy will actually run them.

    Folds the ``run()`` signature's keyword-only defaults under the
    caller's overrides, so ``"bmc"`` and ``"bmc(bound=20)"`` produce the
    same canonical dict — the invariant cache keying relies on: every
    layer keys the query by what gets executed, not by how much of it
    the caller spelled out.
    """
    full = dict(_signature_defaults(strategy))
    full.update(options)
    return full


def run_check_task(task: CheckTask) -> CheckResult:
    """Execute one task — the only place a strategy is run.

    Inline callers (:func:`repro.mc.cache.run_cached`, a ``jobs=1``
    portfolio race) and pool workers all come through here, so the
    ``check_start`` record (the only evidence of a check that never
    returned) and the ``check`` record carrying the verdict and the
    solver effort are written once, by the process that solved.
    """
    strategy, options = resolve_strategy(task.strategy)
    options.update(task.options)
    with _journal.span("check", parent_id=_journal.adopt(task.trace),
                       design=task.system.name, property=task.prop.name,
                       strategy=strategy.name, origin="solver") as sp:
        _journal.emit("check_start", design=task.system.name,
                      property=task.prop.name, strategy=strategy.name)
        result = strategy.run(task.system, task.prop, lemmas=task.lemmas,
                              **options)
        if sp is not None:
            sp.fields.update(
                status=result.status.value, k=result.k,
                solve_seconds=round(result.stats.solve_seconds, 6),
                **result.stats.effort_dict())
    return result
