"""Campaign reporting: one JSON + text summary per campaign run.

The report is the campaign's contract with CI and with the benchmarks:
verdict counts, cache hit *tiers* (memory LRU vs persistent disk store
vs solver), verdict provenance and the solver effort the run spent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.mc.cache import CacheStats
from repro.report import Table

if TYPE_CHECKING:
    from repro.mc.portfolio import PortfolioOutcome


@dataclass
class WorkerStat:
    """Per-worker throughput of one distributed campaign run."""

    worker_id: str
    jobs_done: int = 0
    busy_seconds: float = 0.0    # wall time spent inside job execution

    @property
    def jobs_per_second(self) -> float:
        return self.jobs_done / self.busy_seconds \
            if self.busy_seconds > 0 else 0.0

    def one_line(self) -> str:
        return (f"{self.worker_id}: {self.jobs_done} jobs in "
                f"{self.busy_seconds:.3f}s busy "
                f"({self.jobs_per_second:.1f} jobs/s)")


@dataclass
class CampaignRow:
    """One (design, property) verdict: the one record below the race.

    Every dispatcher returns these (:meth:`from_portfolio`), the
    campaign fills in what only the design knows (``family``,
    ``expect``, ``provenance``), the proof store's ledger keeps them
    and ``repro-verify explain`` reads them back.
    """

    design: str
    property_name: str
    status: str                  # "proven" | "violated" | ...
    strategy: str                # spec that produced the result
    wall_seconds: float
    k: int
    from_cache: bool
    family: str = ""
    expect: str = "unknown"      # the design's ground-truth verdict
    worker: str = ""             # worker id, distributed campaigns only
    #: Machine-independent solver-effort counters of the winning run
    #: (conflicts, decisions, propagations, ...) — what engine
    #: comparisons rank strategies by instead of wall time.
    effort: dict = field(default_factory=dict)
    #: Where the verdict came from: ``"engine"`` (solved now),
    #: ``"store"`` (answered from the proof store / cache), or
    #: ``"seeded"`` (a seeded-lemma strategy won the race).
    provenance: str = ""
    #: The effort ledger: one dict per raced strategy slot (see
    #: :func:`repro.mc.portfolio.attempt_record`).
    attempts: list[dict] = field(default_factory=list)

    @classmethod
    def from_portfolio(cls, outcome: PortfolioOutcome,
                       worker: str = "") -> CampaignRow:
        """The row of one finished portfolio race (``outcome.tag``
        names the design) — shared by the in-process dispatcher, the
        distributed workers and ``verify_all``."""
        return cls(
            design=outcome.tag, property_name=outcome.property_name,
            status=outcome.result.status.value,
            strategy=outcome.strategy,
            wall_seconds=outcome.result.stats.wall_seconds,
            k=outcome.result.k, from_cache=outcome.from_cache,
            worker=worker,
            effort=outcome.result.stats.effort_dict(),
            attempts=list(outcome.attempt_log))

    @classmethod
    def unknown(cls, design: str, property_name: str,
                strategy: str) -> CampaignRow:
        """The UNKNOWN verdict of a job that produced no result: one
        poisoned in the queue, or whose result row is unreadable."""
        return cls(design=design, property_name=property_name,
                   status="unknown", strategy=strategy,
                   wall_seconds=0.0, k=0, from_cache=False)

    @property
    def mismatch(self) -> bool:
        """A VIOLATED verdict where proof was expected, or vice versa.

        Corpus properties imported without a ground truth carry
        ``expect == "unknown"`` and never mismatch.
        """
        if self.expect == "unknown":
            return False
        return (self.status == "violated") != (self.expect == "violated")


@dataclass
class CampaignReport:
    """Everything one campaign run produced, renderable as text or JSON."""

    designs: list[str]
    rows: list[CampaignRow]
    wall_seconds: float
    jobs: int
    fallback_reruns: int = 0     # always 0; read by benchmarks/e2e/tracer.py
    cache: CacheStats = field(default_factory=CacheStats)
    store_results: int = 0       # persistent store size after the run
    workers: int = 0             # worker processes (0 = in-process run)
    worker_stats: list[WorkerStat] = field(default_factory=list)
    #: Wall clock per campaign phase (compile / dispatch / solve /
    #: store), measured by the scheduler via the obs layer.  "solve" is
    #: in-job solver+engine time and overlaps "dispatch", which is the
    #: end-to-end dispatcher call (queueing, workers, supervision).
    phase_seconds: dict = field(default_factory=dict)
    #: Trace id when the run was journaled (``campaign --events DIR``).
    trace_id: str = ""

    # ------------------------------------------------------------------

    def _count(self, status: str) -> int:
        return sum(1 for r in self.rows if r.status == status)

    @property
    def proved(self) -> int:
        return self._count("proven")

    @property
    def falsified(self) -> int:
        return self._count("violated")

    @property
    def unknown(self) -> int:
        return len(self.rows) - self.proved - self.falsified

    @property
    def mismatches(self) -> int:
        return sum(1 for r in self.rows if r.mismatch)

    @property
    def disk_hit_rate(self) -> float:
        """Share of all cache lookups answered by the persistent tier."""
        lookups = self.cache.hits + self.cache.misses
        return self.cache.disk_hits / lookups if lookups else 0.0

    @property
    def provenance_counts(self) -> dict:
        """Verdict provenance tally: engine vs store vs seeded rows."""
        counts: dict[str, int] = {}
        for r in self.rows:
            if r.provenance:
                counts[r.provenance] = counts.get(r.provenance, 0) + 1
        return counts

    @property
    def effort_totals(self) -> dict:
        """Solver effort actually spent by *this* run.

        Cache-hit rows are excluded: their ``effort`` records what the
        original solve cost, not work done now — a warm campaign
        reports (near) zero totals, matching its near-zero wall time.
        """
        totals: dict[str, int] = {}
        for r in self.rows:
            if r.from_cache:
                continue
            for key, value in r.effort.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "designs": list(self.designs),
            "properties": len(self.rows),
            "proved": self.proved,
            "falsified": self.falsified,
            "unknown": self.unknown,
            "mismatches": self.mismatches,
            "wall_seconds": self.wall_seconds,
            "jobs": self.jobs,
            "store_results": self.store_results,
            "phases": dict(self.phase_seconds),
            "trace_id": self.trace_id,
            "effort": self.effort_totals,
            "provenance": self.provenance_counts,
            "workers": self.workers,
            "worker_stats": [
                {
                    "worker_id": w.worker_id,
                    "jobs_done": w.jobs_done,
                    "busy_seconds": w.busy_seconds,
                    "jobs_per_second": w.jobs_per_second,
                }
                for w in self.worker_stats
            ],
            "cache": {
                "hits": self.cache.hits,
                "memory_hits": self.cache.memory_hits,
                "disk_hits": self.cache.disk_hits,
                "misses": self.cache.misses,
                "stores": self.cache.stores,
                "evictions": self.cache.evictions,
                "hit_rate": self.cache.hit_rate,
                "disk_hit_rate": self.disk_hit_rate,
            },
            "results": [
                {
                    "design": r.design,
                    "family": r.family,
                    "property": r.property_name,
                    "status": r.status,
                    "expect": r.expect,
                    "mismatch": r.mismatch,
                    "strategy": r.strategy,
                    "wall_seconds": r.wall_seconds,
                    "k": r.k,
                    "from_cache": r.from_cache,
                    "worker": r.worker,
                    "effort": dict(r.effort),
                    "provenance": r.provenance,
                    "attempts": [dict(a) for a in r.attempts],
                }
                for r in self.rows
            ],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def table(self) -> Table:
        table = Table(["design", "property", "status", "expect",
                       "strategy", "wall (s)", "origin"],
                      title=f"campaign over {len(self.designs)} designs")
        for r in self.rows:
            table.add_row(r.design, r.property_name, r.status, r.expect,
                          r.strategy, r.wall_seconds,
                          "cache" if r.from_cache else "solver")
        return table

    def summary_lines(self) -> list[str]:
        parallelism = f"workers={self.workers}" if self.workers \
            else f"jobs={self.jobs}"
        lines = [
            f"campaign: {len(self.rows)} properties over "
            f"{len(self.designs)} designs in {self.wall_seconds:.3f}s "
            f"({parallelism})",
            f"  verdicts: {self.proved} proven, {self.falsified} "
            f"falsified, {self.unknown} unknown, "
            f"{self.mismatches} expectation mismatches",
            f"  solver effort: "
            f"{self.effort_totals.get('conflicts', 0)} conflicts, "
            f"{self.effort_totals.get('decisions', 0)} decisions, "
            f"{self.effort_totals.get('propagations', 0)} propagations",
            "  " + self.cache.one_line() +
            f", {self.store_results} results on disk",
        ]
        if self.provenance_counts:
            lines.insert(3, "  provenance: " + ", ".join(
                f"{count} {name}" for name, count
                in sorted(self.provenance_counts.items())))
        if self.phase_seconds:
            lines.insert(3, "  phases: " + ", ".join(
                f"{name} {seconds:.3f}s"
                for name, seconds in self.phase_seconds.items()))
        for stat in self.worker_stats:
            lines.append("  worker " + stat.one_line())
        return lines

    def to_text(self) -> str:
        return self.table().to_text() + "\n" + \
            "\n".join(self.summary_lines())
