"""Distributed verification workers over the campaign job pool.

Layering (coordinator -> backend -> queue/store -> workers):

* :mod:`repro.dist.protocol` — picklable lease / result / heartbeat
  records; the only things that cross a process (or machine) boundary.
* :mod:`repro.dist.backend` — the backend seam: explicit
  :class:`QueueBackend` / :class:`StoreBackend` interfaces, the
  ``sqlite:DIR | http://HOST:PORT`` spec parser, and the factories
  every layer opens its handles through.
* :mod:`repro.dist.queue` — the SQLite queue backend: atomic claims
  that register their worker and bring the store's answers for the
  job's keys, heartbeat-extended leases, a supervision call that
  requeues expired leases, and the guarded report that stores a
  job's results, records its verdict (late verdicts from presumed-dead
  workers are discarded, so no verdict is ever lost or duplicated) and
  claims the next job.
* :mod:`repro.dist.server` / :mod:`repro.dist.remote` — the network
  backend: ``repro-verify serve`` hosts the SQLite queue + proof store
  over HTTP, and :class:`RemoteWorkQueue` / :class:`RemoteProofStore`
  give remote campaigns and workers the same interfaces with the same
  semantics (connection loss degrades into lease expiry + requeue).
* :mod:`repro.dist.worker` — the worker loop (``repro-verify worker``):
  claim once, then per job recompile from the registry, race through
  the portfolio scheduler, and report (one request, which hands back
  the next lease); heartbeat throughout.  A worker holds no store.
* :mod:`repro.dist.coordinator` — supervision (one ``supervise``
  request per tick, respawn, inline drain); :class:`Coordinator` is
  the drop-in :class:`~repro.campaign.scheduler.Dispatcher` that makes
  ``CampaignScheduler.run()`` identical for local and distributed runs.
"""

from repro.dist.backend import (TRANSIENT_BACKEND_ERRORS, Backend,
                                QueueBackend, StoreBackend,
                                is_transient_error, open_queue,
                                open_store, parse_backend)
from repro.dist.coordinator import (CampaignConflictError, Coordinator,
                                    job_id_for, spec_from_job)
from repro.dist.protocol import (JOB_DONE, JOB_LEASED, JOB_PENDING,
                                 Heartbeat, JobResult, JobSpec, Lease)
from repro.dist.queue import STATE_CLOSED, STATE_OPEN, WorkQueue
from repro.dist.remote import (RemoteBackendError, RemoteOperationError,
                               RemoteProofStore, RemoteWorkQueue)
from repro.dist.server import ProofService
from repro.dist.worker import Worker

__all__ = [
    "Backend",
    "CampaignConflictError",
    "Coordinator",
    "Heartbeat",
    "JOB_DONE",
    "JOB_LEASED",
    "JOB_PENDING",
    "JobResult",
    "JobSpec",
    "Lease",
    "ProofService",
    "QueueBackend",
    "RemoteBackendError",
    "RemoteOperationError",
    "RemoteProofStore",
    "RemoteWorkQueue",
    "STATE_CLOSED",
    "STATE_OPEN",
    "StoreBackend",
    "TRANSIENT_BACKEND_ERRORS",
    "WorkQueue",
    "Worker",
    "is_transient_error",
    "job_id_for",
    "open_queue",
    "open_store",
    "parse_backend",
    "spec_from_job",
]
