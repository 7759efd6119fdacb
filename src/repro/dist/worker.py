"""Distributed campaign worker: claims leases, proves, heartbeats.

One worker process owns one work-queue handle, opened from a backend
spec (``sqlite:DIR`` shared directory or ``http://HOST:PORT`` service;
see :mod:`repro.dist.backend`), and no proof-store handle: the queue
carries the store both ways.  A claim hands back the store's answers
for the job's query keys (``Lease.known``), the worker's
:class:`~repro.mc.cache.ResultCache` answers from them and collects
what the race solves, and the report carries those results to the
queue, which writes them into the store before it records the verdict
— and claims the worker's next job in the same call.  After its first
claim, which also registers it, a worker makes one request per job.
Its loop is deliberately dumb: take the lease, recompile the (design,
property) from the registry — which fingerprints the query exactly as
every other layer does, so the keys match the ones the coordinator
stamped — race the job's strategy specs through the ordinary
:class:`~repro.mc.portfolio.PortfolioScheduler`, report, repeat.  A
daemon thread heartbeats throughout, extending the lease the worker
holds (the handed-back one included) so the coordinator only reclaims
jobs from workers that actually died.

The lease contract from the worker's side: a worker that cannot reach
its backend (an ``OSError``: SQLite lock storm, service down, network
cut) keeps retrying quietly — it neither reports nor heartbeats, so if the
outage outlasts ``lease_seconds`` its job is requeued for a healthier
worker, and any late report it eventually makes is discarded by the
queue's guarded report (its proofs are stored all the same).
Backend loss therefore degrades into the ordinary crashed-worker path
instead of wedging a campaign; any other error (a full disk, a corrupt
queue file) crashes the worker loudly.  A worker races its one claimed job
inline, in its own process; to use more cores, run more workers.

A worker leaves when a claim — its own, or the one inside a report —
finds nothing to take on a closed queue.  The enqueue of a
coordinator's pool closes the queue, so every worker — spawned or
standalone — leaves once the campaign has nothing left to claim, and
the coordinator's supervision wakes on that exit.  A job requeued
later is re-raced by a worker the coordinator respawns.

Run standalone via ``repro-verify worker --backend SPEC`` (point any
number of machines/processes at one shared directory or one service
URL), or let ``campaign --workers N`` fork local workers: each starts
with the coordinator's modules and journal.  A standalone worker joins
the journal per job, through the ``JobSpec``'s trace context.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import replace
from pathlib import Path

from repro.campaign.report import CampaignRow
from repro.campaign.scheduler import compile_design
from repro.designs.registry import get_design
from repro.dist.backend import Backend, open_queue, parse_backend
from repro.dist.protocol import JobResult, JobSpec, Lease
from repro.dist.queue import STATE_CLOSED
from repro.mc.cache import ResultCache
from repro.mc.portfolio import PortfolioScheduler, VerifyTask
from repro.mc.result import CheckResult
from repro.obs import journal as _journal

#: Seconds between claim attempts while nothing is claimable, and the
#: coordinator's supervision tick.  Read at call time.
POLL_INTERVAL = 0.2


class _LeaseTier:
    """The disk tier of a worker's cache for the job it holds: answers
    from what the claim read out of the store (``Lease.known``) and
    collects what the race solves, for the report to carry back.  A
    :class:`~repro.mc.cache.CacheBacking`, so the cache, the race and
    the cache statistics work exactly as over a store."""

    def __init__(self) -> None:
        self.known: dict[str, CheckResult] = {}
        self.solved: dict[str, CheckResult] = {}

    def hold(self, lease: Lease) -> None:
        self.known, self.solved = lease.known, {}

    def load(self, key: str) -> CheckResult | None:
        return self.known.get(key)

    def load_many(self, keys: list[str]) -> dict[str, CheckResult]:
        return {key: self.known[key] for key in keys if key in self.known}

    def store(self, key: str, result: CheckResult) -> None:
        self.solved[key] = result


class Worker:
    """One worker process's claim/prove/report loop.

    ``backend`` names the rendezvous (directory path, ``sqlite:DIR``,
    or ``http://HOST:PORT``).  ``lease_seconds`` is the crash-detection
    horizon: a worker that stops heartbeating for this long forfeits
    its job.  Every worker leaves when a claim finds nothing on a
    closed queue; ``idle_timeout`` (seconds without claimable work on
    an open queue *or* without a reachable backend) further bounds a
    standalone worker.
    """

    def __init__(self, backend: str | Path | Backend,
                 worker_id: str | None = None,
                 lease_seconds: float = 15.0,
                 idle_timeout: float = 60.0,
                 campaign_owner: str | None = None,
                 campaign_lease: float = 0.0):
        self.backend = parse_backend(backend)
        # Hostname + pid: pids alone collide across the machines a
        # network backend invites in, and worker identity guards lease
        # extension and completion — two workers must never share one.
        self.worker_id = worker_id or \
            f"w-{socket.gethostname()}-{os.getpid()}"
        self.lease_seconds = lease_seconds
        self.idle_timeout = idle_timeout
        # Set by a coordinator draining inline: while this worker has
        # the coordinator's thread, its beats also renew the campaign
        # ownership claim, so a long inline drain cannot lapse and be
        # taken over by a second campaign.
        self.campaign_owner = campaign_owner
        self.campaign_lease = campaign_lease
        self.queue = open_queue(self.backend)
        self._tier = _LeaseTier()
        self.cache = ResultCache(backing=self._tier)
        self._scheduler = PortfolioScheduler(cache=self.cache)
        # design name -> property name -> (compiled prop, scoped system)
        self._compiled: dict[str, dict] = {}
        self._current_job: str | None = None
        self._stop_beats = threading.Event()

    # ------------------------------------------------------------------

    def run(self) -> int:
        """Process jobs until a closed queue has nothing left to claim
        (or ``idle_timeout`` passes).

        Returns the number of jobs this worker completed.
        """
        beats = threading.Thread(target=self._beat_loop, daemon=True)
        beats.start()
        _journal.emit("worker_start", worker=self.worker_id,
                      backend=str(self.backend))
        done = 0
        idle_since: float | None = None
        lease: Lease | None = None
        asked = False       # the last report already claimed for us
        try:
            while True:
                if lease is None:
                    try:
                        if not asked:
                            lease = self.queue.claim(self.worker_id,
                                                     self.lease_seconds)
                        if lease is None and \
                                self.queue.state() == STATE_CLOSED:
                            break
                    except OSError:
                        pass  # backend unreachable: poll again below
                    asked = False
                if lease is None:
                    # No work, or no backend — both count as idle, so a
                    # standalone worker pointed at a dead service exits
                    # after idle_timeout instead of spinning forever.
                    now = time.monotonic()
                    if idle_since is None:
                        idle_since = now
                    elif now - idle_since >= self.idle_timeout:
                        break
                    time.sleep(POLL_INTERVAL)
                    continue
                idle_since = None
                fate, lease = self._process(lease)
                done += fate == "completed"
                asked = fate in ("completed", "discarded")
                self._renew_campaign()
        finally:
            _journal.emit("worker_exit", worker=self.worker_id,
                          jobs_done=done)
            self._stop_beats.set()
            beats.join(timeout=2.0)
            self.queue.close()
        return done

    # ------------------------------------------------------------------

    def _renew_campaign(self) -> None:
        """Refresh the borrowed campaign ownership claim (inline-drain
        workers only) — per job here, per beat in the beat loop, so
        both fast drains and long solves keep the claim alive —
        through the blocked coordinator's own supervision call."""
        if self.campaign_owner is None:
            return
        try:
            self.queue.supervise(self.campaign_owner, self.campaign_lease)
        except Exception:
            pass  # best-effort; the claim has beat-loop slack

    def _process(self, lease: Lease) -> tuple[str, Lease | None]:
        """Run and report one job.  Returns what became of it
        (completed / discarded / unreported / failed) and the next
        lease its report handed back, if any."""
        spec = lease.spec
        # Join the campaign's journal (stamped onto the spec by the
        # coordinator) so this job's records stitch under the dispatch
        # span even though we are a different process — possibly on a
        # different machine sharing only the journal directory.
        with _journal.span("job", parent_id=_journal.adopt(spec.trace),
                           job_id=spec.job_id, design=spec.design,
                           property=spec.property_name,
                           worker=self.worker_id,
                           attempt=lease.attempt) as sp:
            _journal.emit("job_start", job_id=spec.job_id,
                          design=spec.design,
                          property=spec.property_name,
                          worker=self.worker_id, attempt=lease.attempt)
            fate, next_lease = self._process_inner(lease)
            if sp is not None:
                sp.fields.update(fate)
        return fate["result"], next_lease

    def _process_inner(self, lease: Lease) -> tuple[dict, Lease | None]:
        """Run and report one job; returns the fields the ``job``
        record closes with — ``result`` and, for a failure, ``error``
        — and the next lease."""
        spec = lease.spec
        self._current_job = spec.job_id
        self._tier.hold(lease)
        started = time.perf_counter()
        try:
            result = self._execute(spec)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            try:
                self.queue.fail(spec.job_id, self.worker_id, error)
            except OSError:
                pass  # lease expiry requeues the job anyway
            finally:
                self._current_job = None
            return {"result": "failed", "error": error}, None
        result = replace(result,
                         busy_seconds=time.perf_counter() - started,
                         solved=self._tier.solved)
        # _current_job stays set until the report lands: the beat
        # thread must keep extending the lease through a slow report,
        # or a healthy worker's verdict gets reclaimed and discarded
        # as 'late' mid-report.  It then follows the lease the report
        # handed back.  (A beat after the report matches no leased row
        # and is harmless.)
        next_lease = None
        try:
            accepted, next_lease = self.queue.report(
                result, self.worker_id, self.lease_seconds)
            fate = "completed" if accepted else "discarded"
        except OSError:
            # Backend vanished between solving and reporting: the
            # verdict is not recorded (and the results may not be
            # stored).  The lease expires and the requeued attempt runs
            # the job again, answering from the store what did land
            # and proving the rest — a failed report costs a re-proof,
            # never a verdict.
            fate = "unreported"
        finally:
            self._current_job = next_lease.spec.job_id \
                if next_lease is not None else None
        return {"result": fate}, next_lease

    def _execute(self, spec: JobSpec) -> JobResult:
        prop, scoped = self._compile(spec)
        task = VerifyTask(scoped, prop, tag=spec.design,
                          strategies=spec.specs)
        stats_before = replace(self.cache.stats)
        outcome = next(iter(self._scheduler.stream([task])))
        return JobResult(
            job_id=spec.job_id,
            outcome=CampaignRow.from_portfolio(
                outcome, worker=self.worker_id),
            cache=self.cache.stats.since(stats_before))

    def _compile(self, spec: JobSpec):
        """The (property, scoped system) for one job, compiled once per
        design per worker — the same pipeline the campaign scheduler and
        single-design runs use, so cache keys are identical."""
        per_design = self._compiled.get(spec.design)
        if per_design is None:
            design = get_design(spec.design)
            per_design = {prop.name: (prop, scoped)
                          for _spec, prop, scoped in compile_design(design)}
            self._compiled[spec.design] = per_design
        try:
            return per_design[spec.property_name]
        except KeyError:
            raise ValueError(
                f"design {spec.design!r} has no property "
                f"{spec.property_name!r}")

    # ------------------------------------------------------------------

    def _beat_loop(self) -> None:
        interval = max(self.lease_seconds / 3.0, 0.05)
        while not self._stop_beats.wait(interval):
            try:
                self.queue.heartbeat(self.worker_id, self._current_job,
                                     self.lease_seconds)
                self._renew_campaign()
            except Exception:
                # Never let the beat thread die: heartbeats are
                # best-effort liveness, the lease has slack for missed
                # beats, and a worker that solves but silently stopped
                # beating would have every long job's completion
                # discarded.  Persistent backend failure surfaces in
                # the claim loop, not here.
                pass
