"""Parallel portfolio scheduling of check tasks.

The :class:`PortfolioScheduler` takes a batch of verification tasks
(one per property), each carrying its *race* of strategies — by
default k-induction alone (:data:`DEFAULT_PORTFOLIO`) — fans the
whole batch across a ``ProcessPoolExecutor``, and streams per-property
outcomes back **in completion order**:

* the pool's queue is *slot-major*: every race's first configured
  strategy is submitted before any race's second, so when the batch
  has more races than workers a race is usually won before its later
  slots have started.  The first *conclusive* result (PROVEN /
  VIOLATED) wins its race and its siblings' futures are cancelled: a
  sibling still queued is dropped unrun (``"cancelled"`` in the attempt
  log), one already running finishes — workers are not killed
  mid-solve — and its result reaches the cache after the race's
  outcome (``"discarded"``).  A batch whose slots all fit in the pool
  (one two-slot race at ``jobs=2``) still starts every slot at once, so it
  keeps its latency race;
* if every strategy comes back inconclusive, the most informative
  inconclusive result is reported (earliest strategy in the configured
  order, so a PDR UNKNOWN beats a BMC BOUNDED_OK behind it);
* every slot is looked up in a shared
  :class:`~repro.mc.cache.ResultCache` first
  (:func:`~repro.mc.cache.lookup`, behind one batched read of the
  cache's backing for the whole batch) and every solver answer is
  booked into it (:func:`~repro.mc.cache.settle`), so repeated batches
  cost nothing.  :meth:`PortfolioScheduler.probe` is that first pass on
  its own, for a dispatcher whose misses run in other processes.

There is one race: ``jobs`` decides only *who executes a cache miss*.
``jobs=1`` (the default) solves it inline through
:func:`~repro.mc.strategy.run_check_task` — no process pool, no
pickling, strategies run in configured order and stop at the first
conclusive verdict; this is deterministic and is what the flows use
under test.  ``jobs>1`` hands the misses to a ``ProcessPoolExecutor``
whose children run the same function.
"""

from __future__ import annotations

import os
from concurrent.futures import (CancelledError, Future,
                                ProcessPoolExecutor, as_completed)
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

from repro.ir import expr as E
from repro.ir.system import TransitionSystem
from repro.mc.cache import Lookup, ResultCache, key_task, lookup, settle
from repro.mc.property import SafetyProperty
from repro.mc.result import CheckResult, Status
from repro.mc.strategy import CheckTask, resolve_strategy, run_check_task
from repro.obs import journal as _journal

#: The default race: k-induction proves, and its base case refutes.
DEFAULT_PORTFOLIO: tuple[str, ...] = ("k_induction",)


@dataclass
class VerifyTask:
    """One property to verify against one (scoped) transition system.

    ``tag`` is opaque caller identity (the campaign scheduler stamps the
    design name on it) carried through to the outcome, so one flattened
    cross-design batch can be demultiplexed afterwards.  ``strategies``
    is the task's race, spec strings in configured order; campaigns and
    ``verify_all`` bake the property's depths into it with
    :func:`~repro.campaign.scheduler.race_specs`.
    """

    system: TransitionSystem
    prop: SafetyProperty
    strategies: tuple[str, ...]
    lemmas: list[tuple[E.Expr, int]] = field(default_factory=list)
    tag: str = ""


@dataclass
class PortfolioOutcome:
    """Per-property outcome of a portfolio race."""

    property_name: str
    result: CheckResult
    strategy: str               # spec string that produced `result`
    attempts: int = 0           # strategy results actually observed
    cancelled: int = 0          # slots never run: dropped or skipped
    from_cache: bool = False
    tag: str = ""               # the task's tag, passed through
    #: One plain dict per raced slot, in configured order — the effort
    #: ledger's raw material (see :func:`attempt_record`).  Plain dicts
    #: so the log pickles through the dist protocol and JSON-serializes
    #: into the proof store unchanged.
    attempt_log: list[dict] = field(default_factory=list)

    @property
    def status(self) -> Status:
        return self.result.status

    def one_line(self) -> str:
        origin = "cache" if self.from_cache else self.strategy
        extra = f" [{origin}" + \
            (f", {self.cancelled} cancelled]" if self.cancelled else "]")
        return self.result.one_line() + extra


class Probe(NamedTuple):
    """What :meth:`PortfolioScheduler.probe` learned about one task."""

    outcome: PortfolioOutcome | None    # None: somebody has to run it
    keys: tuple[str, ...]               # its cacheable slots' query keys


def attempt_record(spec: str, result: CheckResult, origin: str,
                   winner: bool = False) -> dict:
    """One effort-ledger row for a strategy attempt that produced a
    result.  ``origin`` is where the answer came from: ``"solver"``,
    or the cache tier that served it (``"memory"`` / ``"disk"``)."""
    effort = result.stats.effort_dict()
    effort["solve_seconds"] = round(result.stats.solve_seconds, 6)
    return {"strategy": spec, "status": result.status.value,
            "origin": origin, "winner": winner, "k": result.k,
            "wall_seconds": round(result.stats.wall_seconds, 6),
            "effort": effort}


def unrun_record(spec: str, origin: str) -> dict:
    """A ledger row for a slot that produced no result for its race:
    ``"skipped"`` (never handed to a pool — an earlier slot already
    won), ``"cancelled"`` (dropped from the pool's queue after the win,
    never run) or ``"discarded"`` (already running at the win: it ran
    to the end and was cached, after the race's outcome)."""
    return {"strategy": spec, "status": "", "origin": origin,
            "winner": False, "k": 0, "wall_seconds": 0.0, "effort": {}}


def _worker_run(task: CheckTask) -> CheckResult:
    """Module-level so the process pool can pickle it by reference."""
    return run_check_task(task)


class PortfolioScheduler:
    """Races each task's strategies over a batch of properties.

    A task's race is spec strings (see
    :func:`~repro.mc.strategy.resolve_strategy`) with options inline
    (``"bmc(bound=12)"``).  ``jobs > 1`` enables the process pool.
    """

    def __init__(self, jobs: int = 1, cache: ResultCache | None = None):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.cache = cache

    # ------------------------------------------------------------------

    def run(self, tasks: Sequence[VerifyTask]) -> list[PortfolioOutcome]:
        """All outcomes, in completion order (see :meth:`stream`)."""
        return list(self.stream(tasks))

    def _groups(self, tasks: Sequence[VerifyTask]) -> list["_RaceGroup"]:
        for task in tasks:
            if not task.strategies:
                raise ValueError("a task's race needs a strategy")
            for spec in task.strategies:
                resolve_strategy(spec)  # fail fast on bad specs
        return [_RaceGroup(task) for task in tasks]

    def _consult(self, groups: Sequence["_RaceGroup"],
                 settle_only: bool = False):
        """The pass every job pool starts with: key every slot, ask the
        cache's backing for all of them in one round trip, then walk
        each race's slots in configured order through :func:`lookup`.

        Returns ``(group, misses)`` pairs.  A cached answer settles its
        slot on the spot; ``misses`` lazily yields ``(slot, check,
        found)`` for each slot the cache could not answer and stops
        once the race is decided — so a caller that lands a result
        before asking for the next miss skips the slots it no longer
        needs.  ``settle_only`` is for a caller that will not execute
        the misses itself (:meth:`probe`): a slot the one batched read
        did not find is yielded without a ``get``, leaving its miss to
        be booked by whoever does run it.  Each group keeps its
        cacheable slots' keys (``keys``) for :meth:`probe` to hand out.
        """
        cache = self.cache
        trace = _journal.current_context()
        keyed = []
        for index, group in enumerate(groups):
            slots = []
            for slot, spec in enumerate(group.strategies):
                check = CheckTask(
                    key=(index, slot), system=group.task.system,
                    prop=group.task.prop, strategy=spec,
                    lemmas=group.task.lemmas, trace=trace)
                slots.append((slot, check, key_task(cache, check)))
            keyed.append(slots)
            group.keys = tuple(found.key for _, _, found in slots
                               if found.key is not None)
        prefetched = None if cache is None else cache.prefetch(
            found.key for slots in keyed for _, _, found in slots
            if found.key is not None)

        def misses(group, slots):
            for slot, check, found in slots:
                if group.decided:
                    return
                if found.key is not None and (
                        not settle_only or found.key in prefetched
                        or found.key in cache):
                    found = lookup(cache, check, found, prefetched)
                if found.hit is not None:
                    group.record(slot, found.hit, origin=found.tier)
                else:
                    yield slot, check, found

        return [(group, misses(group, slots))
                for group, slots in zip(groups, keyed)]

    def probe(self, tasks: Sequence[VerifyTask]) -> list[Probe]:
        """Per task, the outcome of its race when the cache alone
        decides or exhausts it — else ``None``: somebody has to run it
        — and the query keys of its slots.

        The first pass of :meth:`stream` without the executing: what a
        dispatcher whose misses run elsewhere (the distributed
        coordinator) asks before it enqueues anything.  The keys travel
        with a job that is run elsewhere, so whoever hands it out can
        hand the store's answers for them along.
        """
        probed: list[Probe] = []
        for group, misses in self._consult(self._groups(tasks),
                                           settle_only=True):
            for _miss in misses:
                pass            # not ours to run; later slots may decide
            probed.append(Probe(
                group.outcome() if group.decided or group.exhausted
                else None, group.keys))
        return probed

    def stream(self, tasks: Sequence[VerifyTask]
               ) -> Iterator[PortfolioOutcome]:
        """Yield one outcome per task as each race concludes."""
        groups = self._groups(tasks)
        pooled = self.jobs > 1 and \
            sum(len(group.strategies) for group in groups) > 1

        # One pass over every slot in configured order (_consult).  A
        # miss is solved right here (jobs=1: the race is the ordering,
        # and stops at the first verdict) or queued for the pool —
        # which is therefore only built when the cache leaves it
        # something to do.
        queued: list[tuple[_RaceGroup, int, CheckTask, Lookup]] = []
        for group, misses in self._consult(groups):
            for slot, check, found in misses:
                if pooled:
                    queued.append((group, slot, check, found))
                else:
                    self._land(group, slot, run_check_task(check), found)
            if group.decided or group.exhausted:
                yield group.outcome()

        # Slot-major: every race's first strategy is queued before any
        # race's second, so a race won early drops its later slots
        # before they start (sort is stable: race order within a slot).
        queued = sorted((entry for entry in queued if not entry[0].decided),
                        key=lambda entry: entry[1])
        if not queued:
            return
        workers = min(self.jobs, len(queued), (os.cpu_count() or 1) * 4)
        try:
            executor = ProcessPoolExecutor(max_workers=workers)
        except (OSError, ValueError):
            # No usable multiprocessing in this environment (restricted
            # sandboxes): the queue runs inline, in the same order.
            for group, slot, check, found in queued:
                if not group.decided and self._land(
                        group, slot, run_check_task(check), found):
                    yield group.outcome()
            return

        with executor:
            running: dict[Future, tuple] = {}
            for group, slot, check, found in queued:
                future = executor.submit(_worker_run, check)
                group.futures[slot] = future
                running[future] = (group, slot, found)
            for future in as_completed(running):
                group, slot, found = running[future]
                try:
                    result = future.result()
                except CancelledError:
                    continue    # tallied where cancel() succeeded
                except Exception as exc:  # worker crash: report, don't die
                    found = None
                    result = CheckResult(
                        group.task.prop.name, Status.UNKNOWN,
                        detail=f"strategy {group.strategies[slot]} failed "
                               f"in worker: {type(exc).__name__}: {exc}")
                if self._land(group, slot, result, found):
                    yield group.outcome()

    def _land(self, group: "_RaceGroup", slot: int, result: CheckResult,
              found: Lookup | None) -> bool:
        """Take in one executed slot's result, whoever executed it;
        True when that concluded the group's race.

        ``found`` is the slot's cache miss, through which the result is
        cached; a crashed worker's stand-in result has none and is not.
        The first conclusive result cancels the group's pooled
        siblings: one still in the pool's queue is dropped unrun
        (``"cancelled"``); one already running cannot be stopped, so it
        finishes, lands here after the outcome, is cached, and counts
        for nothing in its race (``"discarded"``).
        With the queue in slot-major order most later slots are still
        queued when their race's first slot wins.
        """
        if found is not None:
            settle(self.cache, found, result)
        if group.decided:
            return False
        group.record(slot, result)
        if group.decided:
            group.cancelled = {sibling for sibling, future
                               in group.futures.items() if future.cancel()}
        return group.decided or group.exhausted


# ---------------------------------------------------------------------------


class _RaceGroup:
    """Book-keeping for one property's strategy race."""

    def __init__(self, task: VerifyTask):
        self.task = task
        self.strategies = task.strategies
        #: slot -> (result, origin): "solver", or the cache tier
        self.results: dict[int, tuple[CheckResult, str]] = {}
        self.futures: dict[int, Future] = {}    # slots handed to the pool
        self.cancelled: set[int] = set()        # of which dropped unrun
        self.winner_slot: int | None = None
        self.keys: tuple[str, ...] = ()         # cacheable slots' keys

    @property
    def decided(self) -> bool:
        return self.winner_slot is not None

    @property
    def exhausted(self) -> bool:
        return len(self.results) >= len(self.strategies)

    def record(self, slot: int, result: CheckResult,
               origin: str = "solver") -> None:
        self.results[slot] = (result, origin)
        if result.status.conclusive and self.winner_slot is None:
            self.winner_slot = slot

    def outcome(self) -> PortfolioOutcome:
        """The race as it stands: the winner, or with no verdict the
        most informative inconclusive result (configured order).

        The attempt log has one row per slot.  A slot without a result
        is ``"skipped"`` when the race was decided before it reached a
        pool, ``"cancelled"`` when it was dropped from the pool's queue
        and ``"discarded"`` when it was already running (see
        :func:`unrun_record`); ``cancelled`` counts the first two, the
        slots that never ran.
        """
        best = self.winner_slot if self.decided else min(self.results)
        log = []
        for slot, spec in enumerate(self.strategies):
            if slot in self.results:
                log.append(attempt_record(spec, *self.results[slot],
                                          winner=slot == best))
            else:
                log.append(unrun_record(
                    spec, "skipped" if slot not in self.futures
                    else "cancelled" if slot in self.cancelled
                    else "discarded"))
        result, origin = self.results[best]
        return PortfolioOutcome(
            self.task.prop.name, result, self.strategies[best],
            attempts=len(self.results),
            cancelled=sum(1 for row in log
                          if row["origin"] in ("cancelled", "skipped")),
            from_cache=origin != "solver", tag=self.task.tag,
            attempt_log=log)
