"""High-level proof engine facade.

:class:`ProofEngine` is the "formal tool" box in the paper's Fig. 1/Fig. 2
diagrams: it owns a design, applies cone-of-influence reduction per
property, runs single BMC or k-induction checks, manages the
proven-lemma pool, and reports uniform
:class:`~repro.mc.result.CheckResult` records.  Batches of properties
race through :class:`~repro.mc.portfolio.PortfolioScheduler`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.ir import expr as E
from repro.ir.passes import cone_of_influence
from repro.ir.system import TransitionSystem
from repro.mc.cache import ResultCache, run_cached
from repro.mc.property import SafetyProperty
from repro.mc.result import CheckResult


@dataclass
class EngineConfig:
    """Engine-wide defaults (overridable per call)."""

    max_k: int = 10
    bmc_bound: int = 20


class ProofEngine:
    """The formal tool: proves properties, accumulates proven lemmas."""

    def __init__(self, system: TransitionSystem,
                 config: EngineConfig | None = None,
                 cache: ResultCache | None = None):
        system.validate()
        self.system = system
        self.config = config or EngineConfig()
        self.cache = cache
        # (name, good expr, valid_from) — proven global assumptions.
        self.lemmas: list[tuple[str, E.Expr, int]] = []

    # ------------------------------------------------------------------
    # Lemma pool
    # ------------------------------------------------------------------

    def add_lemma(self, name: str, good: E.Expr,
                  valid_from: int = 0) -> None:
        """Register an *already proven* invariant as a global assumption.

        ``valid_from`` exempts monitor warm-up cycles (a lemma built from
        ``$past`` chains says nothing before its chains fill).
        """
        if good.width != 1:
            raise ValueError("lemmas must be 1-bit expressions")
        self.lemmas.append((name, good, valid_from))

    def lemma_pairs(self) -> list[tuple[E.Expr, int]]:
        return [(g, vf) for _, g, vf in self.lemmas]

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------

    def check(self, prop: SafetyProperty, strategy: str,
              use_lemmas: bool = True,
              extra_lemmas: list[tuple[E.Expr, int]] | None = None,
              **options) -> CheckResult:
        """Run one check through the strategy registry (and the cache).

        ``strategy`` is a spec string (``"bmc"``,
        ``"k_induction(simple_path=True)"``, ...); every specialized
        entry point below funnels through here, so caching and
        cone-of-influence scoping behave identically everywhere.
        """
        system = self.scoped_system(prop, extra_lemmas)
        lemmas = list(self.lemma_pairs()) if use_lemmas else []
        lemmas += list(extra_lemmas or [])
        return run_cached(strategy, system, prop, options,
                          lemmas=lemmas, cache=self.cache)

    def check_bmc(self, prop: SafetyProperty,
                  bound: int | None = None,
                  use_lemmas: bool = True,
                  conflict_budget: int | None = None) -> CheckResult:
        """Bounded search for a real counterexample."""
        return self.check(prop, "bmc", use_lemmas=use_lemmas,
                          bound=bound or self.config.bmc_bound,
                          conflict_budget=conflict_budget)

    def probe_bugs(self, prop: SafetyProperty,
                   bound: int | None = None,
                   conflict_budget: int = 4000) -> CheckResult:
        """Cheap single-shot bug triage (see :func:`repro.mc.bmc.bmc_probe`)."""
        return self.check(prop, "bmc_probe",
                          bound=bound or self.config.bmc_bound,
                          conflict_budget=conflict_budget)

    def prove(self, prop: SafetyProperty,
              max_k: int | None = None,
              use_lemmas: bool = True,
              extra_lemmas: list[tuple[E.Expr, int]] | None = None
              ) -> CheckResult:
        """k-induction proof attempt (the paper's core proof method)."""
        return self.check(
            prop, "k_induction", use_lemmas=use_lemmas,
            extra_lemmas=extra_lemmas,
            max_k=max_k if max_k is not None else self.config.max_k)

    # ------------------------------------------------------------------

    def scoped_system(self, prop: SafetyProperty,
                      extra_lemmas: list[tuple[E.Expr, int]] | None = None
                      ) -> TransitionSystem:
        """Cone-of-influence-reduce the design for this query.

        The reduction must keep everything the property, the active lemmas,
        and the environment constraints mention; lemma expressions are
        roots too because they are asserted at every frame.  Public
        because cache keys fingerprint the scoped system: any layer that
        builds its own :class:`VerifyTask`s (the campaign scheduler)
        must scope through here or its keys silently fork.
        """
        roots = list(self._coi_roots(prop.bad))
        for _, good, _vf in self.lemmas:
            roots.extend(self._coi_roots(good))
        for good, _vf in (extra_lemmas or []):
            roots.extend(self._coi_roots(good))
        roots.extend(self.system.constraints)
        return cone_of_influence(self.system, roots)

    def _coi_roots(self, expr: E.Expr) -> Iterator[E.Expr]:
        """``expr`` resolved, plus the body of every define it names.

        The engines resolve the property against the *scoped* system, so
        each define it reads must survive scoping even when the reading
        folds away (``full == <full's own body>`` resolves to a
        constant, whose support would keep nothing).
        """
        system = self.system
        yield system.resolve_defines(expr)
        for name in E.support(expr):
            if name in system.defines:
                yield system.defines[name]
