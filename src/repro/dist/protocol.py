"""Picklable records exchanged between the coordinator and workers.

Everything that crosses a process (or machine) boundary in the
distributed campaign — job descriptions, leases, results, heartbeats —
is one of these records, pickled into the SQLite work queue
(:mod:`repro.dist.queue`) and onto the network backend's wire
(:mod:`repro.dist.server` / :mod:`repro.dist.remote`).
They deliberately carry *names*, not compiled objects: a worker
reconstructs the verification task from the design registry via
:func:`repro.campaign.scheduler.compile_design`, which fingerprints the
query exactly as the coordinator (and any single-process run) would, so
results land in the shared proof store under identical keys — the
invariant that keeps distributed, remote, and local verdicts
interchangeable.

The same keys carry the proof store across the queue, so a worker
holds no store handle of its own: the coordinator stamps each job with
the query keys its probe computed (``JobSpec.keys``), the claim hands
back what the store holds for them (``Lease.known``), and the report
carries what the race solved (``JobResult.solved``), which the queue
writes into the store before it records the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.campaign.report import CampaignRow
from repro.mc.cache import CacheStats
from repro.mc.result import CheckResult
from repro.obs.journal import TraceContext

#: Job lifecycle states inside the work queue.
JOB_PENDING = "pending"
JOB_LEASED = "leased"
JOB_DONE = "done"


@dataclass(frozen=True)
class JobSpec:
    """One (design, property, strategy-race) unit of distributable work.

    ``specs`` is the race to run.  ``priority`` carries the campaign's
    longest-expected-first ordering into the queue.  ``keys`` are the
    race's query keys as the coordinator's probe computed them (empty
    for a hand-made spec): the claim reads the store for exactly these.
    """

    job_id: str
    design: str
    property_name: str
    specs: tuple[str, ...]
    priority: float = 0.0
    #: Journal pointer of the dispatching span: workers join the stream
    #: and parent their "job" record under it, so a distributed campaign
    #: reconstructs as one tree.  None when no journal is configured.
    trace: TraceContext | None = None
    keys: tuple[str, ...] = ()


@dataclass(frozen=True)
class Lease:
    """A claimed job: the worker holds it until ``expires`` (heartbeats
    extend the deadline); an expired lease is requeued by the
    coordinator, which is how crashed or stalled workers lose work.

    ``known`` is the proof store's answer for the job's ``keys``, read
    at claim time (found keys only): the worker's cache tier for this
    job, so a slot an earlier attempt or another campaign settled is
    not solved again."""

    spec: JobSpec
    worker_id: str
    expires: float                  # absolute time.time() deadline
    attempt: int = 1                # 1-based claim count for this job
    known: dict[str, CheckResult] = field(default_factory=dict)


@dataclass(frozen=True)
class Heartbeat:
    """One liveness beat: worker ``worker_id`` is alive and (when
    ``job_id`` is set) still working on that job."""

    worker_id: str
    sent: float                     # time.time() on the worker
    job_id: str | None = None


@dataclass(frozen=True)
class JobResult:
    """A completed job's verdict plus per-job execution accounting.

    ``outcome`` is the job's verdict row (its ``family``, ``expect``
    and ``provenance`` are filled in by the campaign); ``cache`` is the
    worker-side cache traffic this job generated (summed by the
    coordinator into the campaign's cache stats); ``solved`` is every
    result the race's solver produced, by query key — the queue stores
    them and keeps the row without them; ``error`` is set on jobs that
    exhausted their attempts.
    """

    job_id: str
    outcome: CampaignRow
    busy_seconds: float = 0.0       # wall time inside the worker
    cache: CacheStats = field(default_factory=CacheStats)
    solved: dict[str, CheckResult] = field(default_factory=dict)
    error: str = ""
