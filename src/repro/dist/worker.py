"""Distributed campaign worker: claims leases, proves, heartbeats.

One worker process owns one work-queue handle and one two-tier result
cache whose disk tier is the shared proof store — both opened from a
single backend spec (``sqlite:DIR`` shared directory or
``http://HOST:PORT`` service; see :mod:`repro.dist.backend`).  Its loop
is deliberately dumb: claim the best pending job, recompile the
(design, property) from the registry — which fingerprints the query
exactly as every other layer does, so the verdict lands in the shared
store under the same key — race the job's strategy specs through the
ordinary :class:`~repro.mc.portfolio.PortfolioScheduler`, report the
outcome, repeat.  A daemon thread heartbeats throughout, extending the
lease so the coordinator only reclaims jobs from workers that actually
died.

The lease contract from the worker's side: a worker that cannot reach
its backend (SQLite lock storm, service down, network cut) keeps
retrying quietly — it neither completes nor heartbeats, so if the
outage outlasts ``lease_seconds`` its job is requeued for a healthier
worker, and any late completion it eventually reports is discarded by
the queue's guarded completion.  Backend loss therefore degrades into
the ordinary crashed-worker path instead of wedging a campaign.
A worker races its one claimed job inline, in its own process; to use
more cores, run more workers.

A worker leaves when a claim finds nothing to take on a closed queue.
The coordinator closes the queue as soon as it has enqueued its pool,
so every worker — spawned or standalone — leaves once the campaign has
nothing left to claim, and the coordinator's supervision wakes on that
exit.  A job requeued later is re-raced by a worker the coordinator
respawns.

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
from repro.dist.backend import (TRANSIENT_BACKEND_ERRORS, Backend,
                                is_transient_error, open_queue,
                                open_store, parse_backend)
from repro.dist.protocol import Heartbeat, JobResult, JobSpec, Lease
from repro.dist.queue import STATE_CLOSED
from repro.mc.cache import ResultCache
from repro.mc.portfolio import PortfolioScheduler, VerifyTask
from repro.obs import journal as _journal
from repro.obs import metrics as _metrics

_M_CLAIM_SECONDS = _metrics.histogram(
    "repro_worker_claim_seconds", "claim round-trip latency",
    buckets=(0.001, 0.005, 0.025, 0.1, 0.5, 2.0))
_M_IDLE_SECONDS = _metrics.counter(
    "repro_worker_idle_seconds_total",
    "seconds spent polling with no claimable work")
_M_JOBS = _metrics.counter(
    "repro_worker_jobs_total", "jobs processed by outcome",
    labels=("result",))

#: Seconds between claim attempts while nothing is claimable, and the
#: coordinator's supervision tick.  Read at call time.
POLL_INTERVAL = 0.2


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
        self.store = open_store(self.backend)
        self.cache = ResultCache(backing=self.store)
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
        try:
            self.queue.register_worker(self.worker_id, os.getpid())
        except TRANSIENT_BACKEND_ERRORS:
            pass  # registration is bookkeeping; claims re-upsert stats
        beats = threading.Thread(target=self._beat_loop, daemon=True)
        beats.start()
        _journal.emit("worker_start", worker=self.worker_id,
                      backend=str(self.backend))
        done = 0
        idle_since: float | None = None
        try:
            while True:
                lease = None
                try:
                    claim_started = time.perf_counter()
                    lease = self.queue.claim(self.worker_id,
                                             self.lease_seconds)
                    _M_CLAIM_SECONDS.observe(
                        time.perf_counter() - claim_started)
                    if lease is None and \
                            self.queue.state() == STATE_CLOSED:
                        break
                except TRANSIENT_BACKEND_ERRORS as exc:
                    if not is_transient_error(exc):
                        raise  # corrupt/full queue: fail loudly
                    # backend unreachable: poll again below
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
                    _M_IDLE_SECONDS.inc(POLL_INTERVAL)
                    continue
                idle_since = None
                if self._process(lease):
                    done += 1
                self._renew_campaign()
        finally:
            _journal.emit("worker_exit", worker=self.worker_id,
                          jobs_done=done)
            self._stop_beats.set()
            beats.join(timeout=2.0)
            self.queue.close()
            self.store.close()
        return done

    # ------------------------------------------------------------------

    def _renew_campaign(self) -> None:
        """Refresh the borrowed campaign ownership claim (inline-drain
        workers only) — per job here, per beat in the beat loop, so
        both fast drains and long solves keep the claim alive."""
        if self.campaign_owner is None:
            return
        try:
            self.queue.renew_campaign(self.campaign_owner,
                                      self.campaign_lease)
        except Exception:
            pass  # best-effort; the claim has beat-loop slack

    def _process(self, lease: Lease) -> bool:
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
            fate = self._process_inner(spec)
            if sp is not None:
                sp.fields.update(fate)
        return fate["result"] == "completed"

    def _process_inner(self, spec: JobSpec) -> dict:
        """Run and report one job; returns what became of it —
        ``result`` (completed / discarded / unreported / failed) and,
        for a failure, ``error`` — the fields the ``job`` record
        closes with."""
        self._current_job = spec.job_id
        started = time.perf_counter()
        try:
            result = self._execute(spec)
        except Exception as exc:
            _M_JOBS.labels("failed").inc()
            error = f"{type(exc).__name__}: {exc}"
            try:
                self.queue.fail(spec.job_id, self.worker_id, error)
            except TRANSIENT_BACKEND_ERRORS as fail_exc:
                if not is_transient_error(fail_exc):
                    raise
                # lease expiry requeues the job anyway
            finally:
                self._current_job = None
            return {"result": "failed", "error": error}
        result = replace(result,
                         busy_seconds=time.perf_counter() - started)
        # _current_job stays set until the report lands: the beat
        # thread must keep extending the lease through a slow
        # complete() RPC, or a healthy worker's verdict gets reclaimed
        # and discarded as 'late' mid-report.  (A beat after
        # completion matches no leased row and is harmless.)
        try:
            accepted = self.queue.complete(result, self.worker_id)
            fate = "completed" if accepted else "discarded"
        except TRANSIENT_BACKEND_ERRORS as exc:
            if not is_transient_error(exc):
                raise  # corrupt/full queue: fail loudly
            # Backend vanished between solving and reporting: the
            # verdict already sits in the shared store (when reachable),
            # the lease will expire, and the requeued attempt answers
            # from that store — nothing is lost, nothing re-proven.
            fate = "unreported"
        finally:
            self._current_job = None
        _M_JOBS.labels(fate).inc()
        return {"result": fate}

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
                self.queue.heartbeat(
                    Heartbeat(worker_id=self.worker_id, sent=time.time(),
                              job_id=self._current_job),
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
