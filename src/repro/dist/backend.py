"""Backend selection: where the work queue and proof store live.

PR 3's distributed campaign rendezvoused on a shared *directory* — two
SQLite files any participating process could open.  This module makes
that choice explicit and pluggable: the queue and store each sit behind
a small interface (:class:`QueueBackend`, :class:`StoreBackend` — the
method surfaces the SQLite classes already exposed), and a campaign,
worker, or session picks an implementation with one backend spec
string:

``sqlite:DIR`` (or a bare path)
    The original filesystem rendezvous: ``queue.sqlite`` and
    ``proofs.sqlite`` inside ``DIR``.  Multi-machine only via a shared
    filesystem.

``http://HOST:PORT``
    The network backend: a ``repro-verify serve`` process
    (:mod:`repro.dist.server`) owns the SQLite files and exposes both
    interfaces over HTTP; :mod:`repro.dist.remote` provides the
    client-side :class:`~repro.dist.remote.RemoteWorkQueue` /
    :class:`~repro.dist.remote.RemoteProofStore`.  Any machine that can
    reach the service can join a campaign — no shared filesystem.

The protocols are also the wire: the server allow-lists and the client
generates exactly the :data:`QUEUE_METHODS` / :data:`STORE_METHODS`
derived from them.

Every consumer (coordinator, workers, campaign scheduler, session) goes
through :func:`parse_backend` + :func:`open_queue` / :func:`open_store`
and never branches on the backend kind again: the lease / heartbeat /
guarded-report semantics and the cache-tier degrade contract are
identical behind both implementations, which is what keeps distributed
verdicts identical to local ones regardless of transport.

Transient-failure contract: operations on either backend may raise a
:data:`TRANSIENT_BACKEND_ERRORS` member (SQLite lock storms, the
service unreachable mid-request).  Callers in the worker loop treat
these as "try again later" — a worker that cannot reach its backend
simply stops reporting and heartbeating, its lease expires, and the
job is requeued exactly as if the worker had crashed.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, runtime_checkable

from repro.campaign.report import CampaignRow, WorkerStat
from repro.campaign.store import ProofStore, _is_lock_error
from repro.dist.protocol import Heartbeat, JobResult, JobSpec, Lease
from repro.dist.queue import WorkQueue
from repro.mc.cache import CacheBacking

#: Errors meaning "the backend did not answer this time", not "the
#: operation is invalid": SQLite lock/IO trouble, or the HTTP service
#: unreachable (``RemoteBackendError`` is an ``OSError``).  Worker
#: loops retry through these; everything else propagates.  Catch sites
#: that must not retry forever additionally ask
#: :func:`is_transient_error` — the tuple is the coarse net, the
#: function the fine judgment.
TRANSIENT_BACKEND_ERRORS = (sqlite3.Error, OSError)


def is_transient_error(exc: BaseException) -> bool:
    """Whether a caught backend error is genuinely worth retrying.

    Lock/busy contention and transport failures heal on their own;
    every other SQLite error (disk full, corrupt queue file) is
    permanent and retrying it would hang a campaign silently forever —
    those must propagate to the caller.
    """
    if isinstance(exc, sqlite3.OperationalError):
        return _is_lock_error(exc)
    if isinstance(exc, sqlite3.Error):
        return False
    return isinstance(exc, OSError)

_SQLITE_PREFIX = "sqlite:"
_HTTP_PREFIXES = ("http://", "https://")


@runtime_checkable
class QueueBackend(Protocol):
    """The work-queue interface every backend implements.

    Semantics (identical for SQLite and HTTP — the HTTP service just
    fronts a :class:`~repro.dist.queue.WorkQueue`):

    * ``claim`` is atomic across all participants: no two workers ever
      hold the same job.
    * ``heartbeat`` extends the claiming worker's lease; a lease whose
      deadline passes is reclaimed by the coordinator's ``supervise``
      tick (requeue with attempts left, poison-with-UNKNOWN once
      ``max_attempts`` claims are spent), which also renews its
      campaign lease and returns the counts.
    * ``enqueue`` and ``end_campaign`` close the queue; a claim
      registers its worker, job or no job.
    * ``claim`` hands back, on the lease, the proof store's answers for
      the job's query keys; ``report`` writes the results the job
      solved into the store, records its verdict and claims the
      worker's next job — one request per job, and no store handle in
      the worker.
    * The verdict ``report`` records is guarded by the claiming (job,
      worker) pair: a late result from a presumed-dead worker comes
      back ``accepted=False`` and is discarded, so every job reports
      exactly one verdict (its proofs are stored all the same).
    """

    def begin_campaign(self, owner: str,
                       lease_seconds: float) -> bool: ...
    def supervise(self, owner: str, lease_seconds: float
                  ) -> tuple[dict[str, int], list[tuple[str, str]]]: ...
    def end_campaign(self, owner: str) -> None: ...
    def enqueue(self, specs: list[JobSpec],
                max_attempts: int = ...) -> int: ...
    def state(self) -> str: ...
    def claim(self, worker_id: str,
              lease_seconds: float) -> Lease | None: ...
    def heartbeat(self, beat: Heartbeat, lease_seconds: float) -> None: ...
    def report(self, result: JobResult, worker_id: str,
               lease_seconds: float) -> tuple[bool, Lease | None]: ...
    def fail(self, job_id: str, worker_id: str, error: str) -> None: ...
    def counts(self) -> dict[str, int]: ...
    def results(self) -> dict[str, JobResult]: ...
    def worker_stats(self) -> list[WorkerStat]: ...
    def worker_snapshot(self) -> list[dict]: ...
    def close(self) -> None: ...


@runtime_checkable
class StoreBackend(CacheBacking, Protocol):
    """The proof-store interface every backend implements.

    This is the :class:`~repro.mc.cache.CacheBacking` protocol (the
    disk tier behind :class:`~repro.mc.cache.ResultCache`) plus the
    effort ledger: one :class:`~repro.campaign.report.CampaignRow` per
    property, which campaigns and ``verify`` batches write, whose walls
    order the next campaign's pool, and which ``explain`` reads.  The
    degrade contract holds for every implementation: no method raises
    into a proof — an unreachable or broken backend reads as a cache
    miss / empty ledger, so verification always proceeds (just colder).

    ``load_many`` / ``expected_walls`` / ``record_outcomes`` are the
    batch forms: one call per campaign, not one per job.
    """

    def record_outcomes(self, rows: list[CampaignRow]) -> None: ...
    def expected_walls(self, design: str | None = None
                       ) -> dict[tuple[str, str], float]: ...
    def ledger_entry(self, design: str,
                     property_name: str) -> dict | None: ...
    def __len__(self) -> int: ...
    def close(self) -> None: ...


def _wire_methods(*protocols: type) -> frozenset[str]:
    """The public methods of backend protocols: their wire surface.

    ``close`` stays off the wire — it ends a client's handle, never
    the service's — and dunder names stay off the URL.  ``vars`` sees
    only a protocol's own members, so a base protocol is named too.
    """
    return frozenset(name for protocol in protocols
                     for name, member in vars(protocol).items()
                     if callable(member) and not name.startswith("_")
                     ) - {"close"}


#: Queue methods callable over the wire (the QueueBackend surface).
QUEUE_METHODS = _wire_methods(QueueBackend)

#: Store methods callable over the wire (the StoreBackend surface,
#: with its CacheBacking base); ``size`` maps to ``len(store)``.
STORE_METHODS = _wire_methods(StoreBackend, CacheBacking) | {"size"}


@dataclass(frozen=True)
class Backend:
    """A parsed backend choice: ``kind`` plus its location.

    ``sqlite`` locations are cache directories; ``http`` locations are
    base URLs (no trailing slash).  :meth:`spec` renders the canonical
    spec string, which is what the coordinator hands to the workers it
    spawns.
    """

    kind: str           # "sqlite" | "http"
    location: str

    def spec(self) -> str:
        if self.kind == "sqlite":
            return f"{_SQLITE_PREFIX}{self.location}"
        return self.location

    @property
    def is_remote(self) -> bool:
        return self.kind == "http"


def parse_backend(spec: "str | Path | Backend") -> Backend:
    """Resolve a backend spec into a :class:`Backend`.

    Accepts ``sqlite:DIR``, ``http://HOST:PORT`` (or ``https://``), a
    bare directory path (treated as ``sqlite:``), or an
    already-parsed :class:`Backend`.
    """
    if isinstance(spec, Backend):
        return spec
    if isinstance(spec, Path):
        return Backend("sqlite", str(spec))
    text = str(spec).strip()
    if not text:
        raise ValueError("empty backend spec")
    lowered = text.lower()
    if lowered.startswith(_HTTP_PREFIXES):
        return Backend("http", text.rstrip("/"))
    if lowered.startswith(_SQLITE_PREFIX):
        directory = text[len(_SQLITE_PREFIX):]
        if not directory:
            raise ValueError(
                "sqlite backend needs a directory: sqlite:DIR")
        return Backend("sqlite", directory)
    return Backend("sqlite", text)


def open_queue(backend: "str | Path | Backend") -> QueueBackend:
    """A live work-queue handle on the given backend."""
    resolved = parse_backend(backend)
    if resolved.kind == "http":
        from repro.dist.remote import RemoteWorkQueue
        return RemoteWorkQueue(resolved.location)
    return WorkQueue.open(resolved.location)


def open_store(backend: "str | Path | Backend") -> StoreBackend:
    """A live proof-store handle on the given backend."""
    resolved = parse_backend(backend)
    if resolved.kind == "http":
        from repro.dist.remote import RemoteProofStore
        return RemoteProofStore(resolved.location)
    return ProofStore.open(resolved.location)
