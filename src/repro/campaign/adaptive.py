"""Adaptive strategy selection from proof-store statistics.

A campaign's job pool crosses many designs; racing the full strategy
portfolio for every property is wasteful once the store knows which
strategy settles which query.  :class:`AdaptiveSelector` snapshots the
history table once per campaign and chooses each job's race through
three tiers:

1. **Exact property history** — when this very (design, property) has
   settled before, the strategy that settled it runs first and, if it
   settled *every* recorded outcome, the rest of the portfolio is
   pruned.  On a warm regression rerun each job therefore dispatches a
   single strategy.
2. **Family history** — otherwise, per-family win counts (then win
   rates, then median solver wall time, then configured order) order
   the portfolio, and a strategy that dominates a family (won every
   settled outcome, at least ``min_samples`` of them) prunes its
   zero-win siblings.
3. **Full portfolio** — whenever history is thin, the configured race
   runs unchanged.

Pruning is a scheduling bet, not a soundness claim: the campaign
scheduler re-races any pruned job that comes back inconclusive with the
full portfolio, so adaptive campaigns report exactly the verdicts full
ones report — they just dispatch fewer strategy jobs to get there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.campaign.store import ProofStore, StrategyStats
from repro.mc.strategy import spec_name


@dataclass
class StrategyChoice:
    """One job's race, as adaptive selection shaped it."""

    specs: tuple[str, ...]           # the race to run, in order
    pruned: tuple[str, ...] = ()     # portfolio entries dropped
    tier: str = "full"               # "property" | "family" | "full"

    @property
    def was_pruned(self) -> bool:
        return bool(self.pruned)

    @property
    def from_history(self) -> bool:
        return self.tier != "full"


class AdaptiveSelector:
    """Orders/prunes strategy races from one store-stats snapshot.

    The snapshot is taken at construction: a campaign's own outcomes
    never feed back into its own choices, keeping one run's schedule
    deterministic with respect to the store it started from.
    """

    def __init__(self, store: ProofStore, min_samples: int = 3):
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        self.min_samples = min_samples
        self._family_stats = store.strategy_stats()
        self._property_stats = store.property_stats()

    # ------------------------------------------------------------------

    def choose(self, family: str, portfolio: Sequence[str],
               design: str | None = None,
               property_name: str | None = None) -> StrategyChoice:
        """The race to run for one job (see the module docstring)."""
        specs = tuple(portfolio)
        if len(specs) <= 1:
            return StrategyChoice(specs=specs)
        if design is not None and property_name is not None:
            exact = self._choose_from(
                self._property_stats.get((design, property_name), {}),
                specs, min_samples=1, tier="property")
            if exact is not None:
                return exact
        family_view = {name: stats for (fam, name), stats
                       in self._family_stats.items() if fam == family}
        by_family = self._choose_from(family_view, specs,
                                      min_samples=self.min_samples,
                                      tier="family")
        return by_family if by_family is not None \
            else StrategyChoice(specs=specs)

    # ------------------------------------------------------------------

    @staticmethod
    def _choose_from(stats_by_name: Mapping[str, StrategyStats],
                     specs: tuple[str, ...], min_samples: int,
                     tier: str) -> StrategyChoice | None:
        """Order (and maybe prune) ``specs`` against one stats view.

        ``None`` means the view is too thin to act on: fewer than
        ``min_samples`` settled outcomes across the whole portfolio.
        """

        def stats_for(spec: str) -> StrategyStats:
            name = spec_name(spec)
            return stats_by_name.get(name, StrategyStats("", name))

        total_wins = sum(s.wins for s in stats_by_name.values())
        if total_wins < min_samples:
            return None
        ranked = sorted(
            range(len(specs)),
            key=lambda i: (-stats_for(specs[i]).wins,
                           -stats_for(specs[i]).win_rate,
                           stats_for(specs[i]).median_wall, i))
        ordered = tuple(specs[i] for i in ranked)
        # Prune only under a dominant leader: every settled outcome this
        # view has seen came back conclusive from the front-runner.
        leader = stats_for(ordered[0])
        if not (leader.wins >= min_samples and
                leader.wins == leader.attempts and
                leader.wins == total_wins):
            return StrategyChoice(specs=ordered, tier=tier)
        kept = tuple(s for s in ordered if stats_for(s).wins > 0) \
            or ordered[:1]
        pruned = tuple(s for s in ordered if s not in kept)
        return StrategyChoice(specs=kept, pruned=pruned, tier=tier)
