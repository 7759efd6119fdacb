"""Campaign coordinator: fans a job pool across worker processes.

The :class:`Coordinator` owns the work queue for one campaign run.  It
first asks the shared proof store about the whole pool at once — the
same per-slot cache pass every in-process pool starts with
(:meth:`~repro.mc.portfolio.PortfolioScheduler.probe`, one batched
read) — and reports every job whose race the store decides or exhausts
on the spot.  Only the rest is serialized into
:class:`~repro.dist.protocol.JobSpec` rows, each stamped with the
query keys the probe computed for its race, so a claim can hand the
worker the store's answers for them; for those it takes the
queue, forks local workers (each a :class:`~repro.dist.worker.Worker`
on the shared backend — a cache directory other machines can mount,
or a ``repro-verify serve`` URL other machines can reach — that starts
with the coordinator's modules and journal), and supervises.  A pool
the store settles entirely takes no queue and starts no process.

The queue closes in the transaction that enqueues the pool: the pool is
final, so each worker leaves as soon as nothing is claimable, and the
coordinator's supervision tick ends early when one of its workers
exits.  A campaign therefore returns when its last job does, not on
the tick after.  Each tick is one queue request (``supervise``), and a
campaign with T ticks makes 5 + T: begin, enqueue, the ticks, results,
worker stats and end.  While workers run:

* expired leases are requeued on the tick, so the job of any worker
  that stopped heartbeating (killed, SIGSTOPped, machine-dead, or cut
  off from the backend) is re-raced by a survivor — the proof store's
  content-keyed results make the retry idempotent, and the queue's
  report guard discards any late verdict from the presumed-dead
  worker, so no verdict is lost or duplicated (a worker wedged
  *inside* one solver call keeps beating; that failure mode is bounded
  by ``wall_timeout``, not by leases);
* dead worker processes are respawned while work remains (up to a
  budget) — including a job requeued after every worker has left —
  and if no worker can run at all the coordinator drains the queue
  inline, so a campaign always terminates with a verdict per job.

The coordinator is itself a campaign
:class:`~repro.campaign.scheduler.Dispatcher` (:meth:`Coordinator
.dispatch`), so ``CampaignScheduler.run()`` is byte-for-byte the same
code path whether jobs run in-process, across local workers on a shared
directory, or across machines against a network backend.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import time
from dataclasses import astuple, replace
from pathlib import Path
from typing import Iterable, Sequence

from repro.campaign.report import CampaignRow
from repro.campaign.scheduler import CampaignJob, DispatchResult
from repro.dist import worker as _worker
from repro.dist.backend import (Backend, open_queue, open_store,
                                parse_backend)
from repro.dist.protocol import (JOB_LEASED, JOB_PENDING, JobResult,
                                 JobSpec)
from repro.errors import ReproError
from repro.mc.cache import CacheStats, ResultCache
from repro.mc.portfolio import PortfolioScheduler
from repro.obs import journal as _journal


class CampaignConflictError(ReproError):
    """Another campaign is actively running on the shared backend.

    One backend hosts one campaign at a time (any number of standalone
    workers may serve it): a campaign owns the whole queue and resets
    it on start, so starting a second one would silently wipe the
    first's jobs.  Stale state from a *crashed* campaign does not
    conflict — its leases expire and the new campaign takes over."""


def job_id_for(design: str, property_name: str) -> str:
    return f"{design}::{property_name}"


def spec_from_job(job: CampaignJob,
                  keys: tuple[str, ...] = ()) -> JobSpec:
    """Serialize one campaign job for the queue (names, not objects);
    ``keys`` are its race's query keys, as the probe computed them."""
    return JobSpec(
        job_id=job_id_for(*job.identity),
        design=job.design.name,
        property_name=job.prop.name,
        specs=tuple(job.task.strategies),
        priority=job.expected_wall,
        # Stamped at enqueue time: workers parent their "job" span on
        # the span current here (the campaign's dispatch span).
        trace=_journal.current_context(),
        keys=keys)


class Coordinator:
    """Drives one distributed campaign over a shared backend.

    ``backend`` is the rendezvous every worker shares (directory path,
    ``sqlite:DIR``, or ``http://HOST:PORT``); ``workers`` local worker
    processes are forked from this one, each racing one claimed job at
    a time; ``lease_seconds`` bounds crash detection
    (a worker silent that long forfeits its job); ``wall_timeout``
    (None = unbounded) bounds the whole run as a last-resort stall
    guard.  Dead workers are respawned up to ``2 * workers`` times.
    ``cache`` is the campaign's store-backed result cache, through
    which the pool is probed before anything is enqueued; without one
    the coordinator opens the backend's store for the campaign.  The
    supervision tick is :data:`repro.dist.worker.POLL_INTERVAL`.
    """

    def __init__(self, backend: str | Path | Backend,
                 workers: int = 2,
                 lease_seconds: float = 15.0,
                 wall_timeout: float | None = None,
                 cache: ResultCache | None = None):
        if workers < 1:
            raise ValueError("a distributed campaign needs >= 1 worker")
        self.backend = parse_backend(backend)
        self.workers = workers
        self.lease_seconds = lease_seconds
        self.wall_timeout = wall_timeout
        self.queue = open_queue(self.backend)
        self._own_store = open_store(self.backend) if cache is None \
            else None
        self.cache = cache if cache is not None \
            else ResultCache(backing=self._own_store)
        self.requeued: list[tuple[str, str]] = []  # (job_id, dead worker)
        self._procs: dict[str, multiprocessing.Process] = {}
        self._spawned = 0
        self._wanted = 0                    # workers the enqueued jobs need
        self._owns_queue = False            # begin_campaign succeeded
        self._started = time.monotonic()    # wall_timeout reference
        self._backend_answered = False      # ever reached at all?
        # Campaign-lease identity: the atomic begin_campaign guard
        # keys on this, and every supervision tick renews the claim
        # (a crashed coordinator's claim lapses).
        self._campaign_id = f"c-{socket.gethostname()}-{os.getpid()}"
        self._campaign_lease = max(lease_seconds * 2, 10.0)

    # ------------------------------------------------------------------
    # Worker process management
    # ------------------------------------------------------------------

    def _spawn_worker(self) -> bool:
        self._spawned += 1
        worker_id = f"w{self._spawned}"
        try:
            proc = multiprocessing.get_context("fork").Process(
                target=_run_worker, name=worker_id,
                args=(self.backend.spec(), worker_id, self.lease_seconds))
            proc.start()
        except (OSError, ValueError):
            return False  # no fork here; inline drain covers it
        self._procs[worker_id] = proc
        return True

    def _reap_processes(self) -> int:
        """Drop exited workers from the table; returns how many live."""
        for worker_id in list(self._procs):
            if self._procs[worker_id].exitcode is not None:
                del self._procs[worker_id]
        return len(self._procs)

    def _shutdown_workers(self) -> None:
        if not self._owns_queue:
            return  # nothing was enqueued: no claim, no worker to stop
        try:
            # Releases the campaign and closes the queue, for a
            # dispatch that failed before its enqueue closed it.
            self.queue.end_campaign(self._campaign_id)
        except Exception:
            # A best-effort release: this runs in
            # dispatch()'s finally clause, so raising here would mask the
            # primary exception and skip reaping the spawned processes
            # below (workers on a closed queue leave on their own, and
            # an unreleased campaign claim lapses).
            pass
        deadline = time.monotonic() + max(_worker.POLL_INTERVAL * 10, 2.0)
        for proc in self._procs.values():
            proc.join(timeout=max(deadline - time.monotonic(), 0.1))
            for stop in (proc.terminate, proc.kill):
                if proc.exitcode is None:
                    stop()
                    proc.join(timeout=1.0)
        self._procs.clear()

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------

    def _check_wall_timeout(self) -> None:
        if self.wall_timeout is not None and \
                time.monotonic() - self._started > self.wall_timeout:
            raise TimeoutError(
                f"distributed campaign stalled: jobs unfinished after "
                f"{self.wall_timeout}s")

    #: How long a backend that has NEVER answered gets before the
    #: campaign fails fast — a typo'd URL should error out, not hang
    #: silently forever.  Once the backend has answered even once, only
    #: ``wall_timeout`` bounds outage patience (ride-through contract).
    NEVER_ANSWERED_GRACE = 30.0

    def _with_backend_retry(self, operation):
        """Run one queue operation, riding out backend outages.

        Every queue call a campaign makes goes through here, the
        supervision tick's included: a backend that stops answering
        (server restarting, lock storm) pauses the campaign instead of
        crashing it — the loop keeps polling, workers retry on their
        own, and queue state, leases included, is on disk behind the
        backend, so the run resumes where it stopped once the backend
        answers again.  Only ``wall_timeout`` bounds that patience.  A
        backend that has never answered at all is a misconfiguration,
        not an outage, and fails after :data:`NEVER_ANSWERED_GRACE`.
        """
        while True:
            try:
                value = operation()
            except OSError as exc:
                self._check_wall_timeout()
                if not self._backend_answered and \
                        time.monotonic() - self._started > \
                        self.NEVER_ANSWERED_GRACE:
                    raise TimeoutError(
                        f"backend {self.backend.spec()} never answered "
                        f"within {self.NEVER_ANSWERED_GRACE}s: "
                        f"{exc}") from exc
                time.sleep(_worker.POLL_INTERVAL)
                continue
            self._backend_answered = True
            return value

    def _await_drained(self) -> None:
        """Block until every enqueued job is done.

        Each tick ends when a spawned worker exits or after
        :data:`~repro.dist.worker.POLL_INTERVAL`, whichever comes
        first, and makes one queue request, which renews the campaign
        lease, requeues expired leases and reads the counts.  The loop
        respawns dead workers while pending work and respawn budget
        remain, and — if no worker process can run at all — drains the
        queue inline so the campaign still terminates.  A backend
        outage pauses the loop (:meth:`_with_backend_retry`).
        """
        while True:
            self._check_wall_timeout()
            counts, requeued = self._with_backend_retry(
                lambda: self.queue.supervise(self._campaign_id,
                                             self._campaign_lease))
            self.requeued.extend(requeued)
            pending = counts.get(JOB_PENDING, 0)
            if pending + counts.get(JOB_LEASED, 0) == 0:
                return
            alive = self._reap_processes()
            if pending > 0 and alive < self._wanted:
                in_budget = self._spawned - self.workers < 2 * self.workers
                if not in_budget or not self._spawn_worker():
                    if alive == 0:
                        # Workers keep dying (or cannot spawn at all,
                        # e.g. sandboxed test runs): run the work here
                        # rather than deadlock the campaign.
                        self._drain_inline()
                        continue
            self._await_tick()

    def _await_tick(self) -> None:
        """Sleep one supervision tick, cut short when a worker exits.

        Workers leave once nothing is claimable, so a worker's exit is
        the moment the queue is likeliest to have drained; with none
        alive the tick is a plain sleep."""
        live = next(iter(self._procs.values()), None)
        if live is None:
            time.sleep(_worker.POLL_INTERVAL)
            return
        live.join(timeout=_worker.POLL_INTERVAL)

    def _drain_inline(self) -> None:
        """Run pending jobs in this process (no workers available).

        The inline worker borrows this coordinator's thread, so it
        also carries the campaign ownership claim: its beat thread
        renews the claim that ``_await_drained`` (blocked here) cannot,
        keeping a long inline drain safe from takeover."""
        _worker.Worker(self.backend, worker_id="w-inline",
                       lease_seconds=self.lease_seconds,
                       idle_timeout=_worker.POLL_INTERVAL,
                       campaign_owner=self._campaign_id,
                       campaign_lease=self._campaign_lease).run()

    # ------------------------------------------------------------------
    # The campaign dispatch
    # ------------------------------------------------------------------

    def dispatch(self, pool: Sequence[CampaignJob]) -> DispatchResult:
        """Execute the pool across workers; one row per job.

        One coordinator drives one dispatch: the queue handle opened at
        construction is closed when it ends."""
        self._started = time.monotonic()
        probed_from = replace(self.cache.stats)
        try:
            rows, results = self._settle(pool)
            return DispatchResult(
                rows=rows,
                # The store reads this campaign made: the probe's here
                # plus each executed job's in its worker.
                cache=_sum_cache_stats(
                    [self.cache.stats.since(probed_from)] +
                    [result.cache for result in results.values()]),
                workers=self.workers,
                worker_stats=self._with_backend_retry(
                    self.queue.worker_stats) if self._owns_queue else [])
        finally:
            self._shutdown_workers()
            self.queue.close()
            if self._own_store is not None:
                self._own_store.close()

    def _settle(self, jobs: Sequence[CampaignJob]
                ) -> tuple[dict[tuple[str, str], CampaignRow],
                           dict[str, JobResult]]:
        """Probe, then enqueue: the jobs the store settles are answered
        here, the rest by workers.  Returns every job's row and the
        queue's results (empty when nothing was enqueued)."""
        rows: dict[tuple[str, str], CampaignRow] = {}
        enqueued: list[CampaignJob] = []
        specs: list[JobSpec] = []
        probe = PortfolioScheduler(cache=self.cache).probe(
            [job.task for job in jobs])
        for job, (settled, keys) in zip(jobs, probe):
            if settled is None:
                enqueued.append(job)
                specs.append(spec_from_job(job, keys))
            else:
                rows[job.identity] = CampaignRow.from_portfolio(settled)
        if not enqueued:
            return rows, {}
        self._take_queue()
        # The enqueue closes the queue: the pool is final, so each
        # worker leaves the moment nothing is claimable, and its exit
        # is what wakes the supervision loop.
        self._with_backend_retry(lambda: self.queue.enqueue(specs))
        self._wanted = min(self.workers, len(enqueued))
        for _ in range(self._wanted - self._reap_processes()):
            self._spawn_worker()
        self._await_drained()
        results = self._with_backend_retry(self.queue.results)
        for job in enqueued:
            rows[job.identity] = _row_for(results, job)
        return rows, results

    def _take_queue(self) -> None:
        """Atomically take the queue for this campaign, once (one
        transaction server-side, so two coordinators can never
        interleave the conflict check with the wipe).  A crashed
        campaign's claim lapses and is taken over; a live one is
        refused — without touching its state, which is why
        ``_shutdown_workers`` does nothing until this has succeeded."""
        if self._owns_queue:
            return
        acquired = self._with_backend_retry(
            lambda: self.queue.begin_campaign(self._campaign_id,
                                              self._campaign_lease))
        if not acquired:
            raise CampaignConflictError(
                f"another campaign is active on "
                f"{self.backend.spec()}; one backend runs one "
                f"campaign at a time — wait for it to finish")
        self._owns_queue = True


def _run_worker(backend: str, worker_id: str,
                lease_seconds: float) -> None:
    """A forked worker's whole life (the child's process target)."""
    _worker.Worker(backend, worker_id=worker_id,
                   lease_seconds=lease_seconds).run()


def _row_for(results: dict[str, JobResult],
             job: CampaignJob) -> CampaignRow:
    """The queue's verdict for one job; UNKNOWN if its result row is
    unreadable (a torn write must not crash the whole campaign)."""
    result = results.get(job_id_for(*job.identity))
    if result is not None:
        return result.outcome
    return CampaignRow.unknown(*job.identity, job.task.strategies[0])


def _sum_cache_stats(parts: Iterable[CacheStats]) -> CacheStats:
    """Several caches' traffic as one campaign view, field by field."""
    return CacheStats(*map(sum, zip(*map(astuple, parts))))
