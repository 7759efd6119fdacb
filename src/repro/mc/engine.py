"""High-level proof engine facade.

:class:`ProofEngine` is the "formal tool" box in the paper's Fig. 1/Fig. 2
diagrams: it owns a design, applies cone-of-influence reduction per
property, runs single BMC or k-induction checks under the proven lemmas
each call passes (``lemmas=``, the only way a lemma reaches a check, so
it is always in the query key), and reports uniform
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
    """The formal tool: proves properties of one design."""

    def __init__(self, system: TransitionSystem,
                 config: EngineConfig | None = None,
                 cache: ResultCache | None = None):
        system.validate()
        self.system = system
        self.config = config or EngineConfig()
        self.cache = cache

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------

    def check(self, prop: SafetyProperty, strategy: str,
              lemmas: list[tuple[E.Expr, int]] | None = None,
              **options) -> CheckResult:
        """Run one check through the strategy registry (and the cache).

        ``strategy`` is a spec string (``"bmc"``,
        ``"k_induction(simple_path=True)"``, ...); every specialized
        entry point below funnels through here, so caching and
        cone-of-influence scoping behave identically everywhere.
        ``lemmas`` are *already proven* 1-bit invariants as
        ``(good, valid_from)`` pairs, assumed at every frame;
        ``valid_from`` exempts monitor warm-up cycles (a lemma built
        from ``$past`` chains says nothing before its chains fill).
        """
        return run_cached(strategy, self.scoped_system(prop, lemmas), prop,
                          options, lemmas=lemmas, cache=self.cache)

    def check_bmc(self, prop: SafetyProperty,
                  bound: int | None = None,
                  conflict_budget: int | None = None) -> CheckResult:
        """Bounded search for a real counterexample."""
        return self.check(prop, "bmc", bound=self._bound(bound),
                          conflict_budget=conflict_budget)

    def probe_bugs(self, prop: SafetyProperty,
                   bound: int | None = None,
                   conflict_budget: int = 4000) -> CheckResult:
        """Cheap single-shot bug triage (see :func:`repro.mc.bmc.bmc_probe`)."""
        return self.check(prop, "bmc_probe", bound=self._bound(bound),
                          conflict_budget=conflict_budget)

    def prove(self, prop: SafetyProperty,
              max_k: int | None = None,
              lemmas: list[tuple[E.Expr, int]] | None = None
              ) -> CheckResult:
        """k-induction proof attempt (the paper's core proof method)."""
        return self.check(
            prop, "k_induction", lemmas=lemmas,
            max_k=max_k if max_k is not None else self.config.max_k)

    def _bound(self, bound: int | None) -> int:
        return bound if bound is not None else self.config.bmc_bound

    # ------------------------------------------------------------------

    def scoped_system(self, prop: SafetyProperty,
                      lemmas: list[tuple[E.Expr, int]] | None = None
                      ) -> TransitionSystem:
        """Cone-of-influence-reduce the design for this query.

        The reduction must keep everything the property, the lemmas,
        and the environment constraints mention; lemma expressions are
        roots too because they are asserted at every frame.  Public
        because cache keys fingerprint the scoped system: any layer that
        builds its own :class:`VerifyTask`s (the campaign scheduler)
        must scope through here or its keys silently fork.
        """
        roots = list(self._coi_roots(prop.bad))
        for good, _vf in (lemmas or []):
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
