"""SQLite-backed work queue: the distributed campaign's dispatch fabric.

One ``queue.sqlite`` file, living next to the proof store inside the
campaign's cache directory, coordinates any number of worker processes
with no daemon — workers and coordinator rendezvous on the filesystem
alone, which is exactly the deployment story of the proof store itself.
This class is the SQLite implementation of the
:class:`~repro.dist.backend.QueueBackend` interface; it is also the
queue a ``repro-verify serve`` process hosts over HTTP
(:mod:`repro.dist.server`), so the lease protocol below is *the* lease
protocol, whatever transport carries the calls.

The lease protocol:

* the coordinator ``enqueue``\\ s :class:`~repro.dist.protocol.JobSpec`
  rows (highest campaign priority first), and the same transaction
  closes the queue behind them: the pool is final, so a worker that
  finds nothing claimable leaves;
* a worker ``claim``\\ s the best pending job inside one ``BEGIN
  IMMEDIATE`` transaction — claims are atomic across processes, two
  workers can never hold the same job — and the same transaction
  registers the worker, whether or not it found a job;
* a claim also reads the sibling proof store (``proofs.sqlite`` in
  the same directory, or the store a service hands in) for the job's
  query keys and returns the answers on the lease, so the worker needs
  no store handle of its own;
* the worker heartbeats while solving, which extends its lease
  deadline; ``report`` writes the results the race solved into the
  proof store, records the verdict guarded by ``(job_id, worker_id,
  leased)`` — a requeued job's late report from a presumed-dead worker
  is discarded instead of double-reported, but its proofs stay in the
  store — and claims the worker's next job in the same call, so a job
  costs one request after the worker's first claim;
* the coordinator ``supervise``\\ s once per tick: it renews its
  campaign lease, reclaims every lease whose deadline passed (crashed
  or stalled worker) — back to pending, or, after ``max_attempts``
  claims, poisoned with an UNKNOWN verdict so one broken job can never
  wedge a campaign — and reads the queue's counts, in one call.

Unlike the proof store (a cache that degrades rather than raises), the
queue is *coordination state*: non-lock SQLite errors propagate.  Lock
collisions are retried with the store's shared backoff helper on top of
a generous ``busy_timeout``.
"""

from __future__ import annotations

import pickle
import sqlite3
import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Iterator

from repro.campaign.report import WorkerStat
from repro.campaign.report import CampaignRow
# The store's lock-retry policy is deliberately shared: both files sit
# in the same cache directory and see the same contention patterns.
from repro.campaign.store import (BUSY_TIMEOUT_MS, ProofStore,
                                  _with_lock_retry)
from repro.dist.protocol import (JOB_DONE, JOB_LEASED, JOB_PENDING,
                                 Heartbeat, JobResult, JobSpec, Lease)
from repro.obs import journal as _journal
from repro.obs import metrics as _metrics

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    job_id       TEXT PRIMARY KEY,
    priority     REAL NOT NULL,
    status       TEXT NOT NULL,
    attempts     INTEGER NOT NULL DEFAULT 0,
    max_attempts INTEGER NOT NULL,
    worker_id    TEXT,
    lease_expiry REAL,
    spec         BLOB NOT NULL,
    result       BLOB,
    created      REAL NOT NULL,
    updated      REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS jobs_status_priority
    ON jobs (status, priority DESC);
CREATE TABLE IF NOT EXISTS workers (
    worker_id      TEXT PRIMARY KEY,
    started        REAL NOT NULL,
    last_heartbeat REAL NOT NULL,
    jobs_done      INTEGER NOT NULL DEFAULT 0,
    busy_seconds   REAL NOT NULL DEFAULT 0.0
);
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""

#: Queue lifecycle states (``meta`` table, key ``state``).
STATE_OPEN = "open"          # more work may still arrive; workers poll
STATE_CLOSED = "closed"      # the pool is final; workers leave when nothing is claimable


class WorkQueue:
    """One process's handle on the shared on-disk work queue.

    Thread-safe behind one lock (a worker's heartbeat thread shares the
    handle with its solve loop); cross-process safety comes from SQLite
    itself — every read-modify-write runs inside ``BEGIN IMMEDIATE``.
    ``store`` is the proof store claims read and reports write; without
    one the queue opens ``proofs.sqlite`` beside its own file the first
    time it needs it (and closes it with the queue).
    """

    FILENAME = "queue.sqlite"
    DEFAULT_MAX_ATTEMPTS = 3

    def __init__(self, path: str | Path,
                 registry: _metrics.MetricsRegistry | None = None,
                 store: ProofStore | None = None):
        self.path = Path(path)
        self._store = store
        self._owns_store = store is None
        registry = registry or _metrics.MetricsRegistry()
        self._m_enqueued = registry.counter(
            "repro_queue_enqueued_total", "jobs added to the queue")
        self._m_claims = registry.counter(
            "repro_queue_claims_total", "claim attempts by outcome",
            labels=("result",))
        self._m_requeued = registry.counter(
            "repro_queue_requeued_total",
            "expired leases returned to pending (lease churn)")
        self._m_poisoned = registry.counter(
            "repro_queue_poisoned_total",
            "jobs force-completed as UNKNOWN after exhausting attempts")
        self._m_completions = registry.counter(
            "repro_queue_completions_total",
            "job completions by outcome (discarded = stale lease)",
            labels=("result",))
        self._m_heartbeats = registry.counter(
            "repro_queue_heartbeats_total", "worker heartbeats recorded")
        self._m_depth = registry.gauge(
            "repro_queue_jobs", "jobs currently in the queue by status",
            labels=("status",))
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(str(self.path),
                                     check_same_thread=False,
                                     isolation_level=None)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
        with self._lock:
            _with_lock_retry(lambda: self._conn.executescript(_SCHEMA))

    @classmethod
    def open(cls, cache_dir: str | Path,
             registry: _metrics.MetricsRegistry | None = None,
             store: ProofStore | None = None) -> "WorkQueue":
        """The queue inside ``cache_dir`` (created if missing)."""
        directory = Path(cache_dir)
        directory.mkdir(parents=True, exist_ok=True)
        return cls(directory / cls.FILENAME, registry=registry,
                   store=store)

    def close(self) -> None:
        with self._lock:
            self._conn.close()
            if self._owns_store and self._store is not None:
                self._store.close()

    def _proofs(self) -> ProofStore:
        """The proof store beside this queue, opened on first use."""
        with self._lock:
            if self._store is None:
                self._store = ProofStore.open(self.path.parent)
            return self._store

    @contextmanager
    def _txn(self) -> Iterator[None]:
        """One atomic read-modify-write against the shared file."""
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            yield
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        self._conn.execute("COMMIT")

    # ------------------------------------------------------------------
    # Coordinator side
    # ------------------------------------------------------------------

    def _meta(self, key: str) -> str | None:
        """One meta value (caller holds the lock and a transaction)."""
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)).fetchone()
        return row[0] if row is not None else None

    def begin_campaign(self, owner: str, lease_seconds: float) -> bool:
        """Atomically take ownership of the queue for one campaign.

        One backend runs one campaign at a time; this is the
        check-and-reset made atomic (a single transaction, so two
        coordinators can never interleave a check with a wipe).  The
        begin is refused — ``False``, queue untouched — while another
        owner's campaign lease is unexpired, or while any job is under
        a live worker lease.  Otherwise all queue state is wiped, the
        queue opens, and ``owner`` holds the campaign lease until it
        ends the campaign or stops renewing (a crashed coordinator's
        claim lapses, so the next campaign takes over).  Re-beginning
        under the same ``owner`` is idempotent — a begin whose response
        was lost can safely be retried.
        """
        now = time.time()

        def txn() -> bool:
            with self._txn():
                current = self._meta("campaign_owner")
                expiry = float(self._meta("campaign_expiry") or 0.0)
                foreign = current is not None and current != owner
                if foreign and expiry > now:
                    return False
                live = self._conn.execute(
                    "SELECT COUNT(*) FROM jobs WHERE status = ? "
                    "AND lease_expiry >= ?",
                    (JOB_LEASED, now)).fetchone()[0]
                # A live lease is activity even with no owner recorded
                # (work enqueued outside any coordinator): refuse
                # unless the queue is already this owner's.
                if live > 0 and current != owner:
                    return False
                self._conn.execute("DELETE FROM jobs")
                self._conn.execute("DELETE FROM workers")
                self._conn.execute("DELETE FROM meta")
                self._conn.executemany(
                    "INSERT INTO meta (key, value) VALUES (?, ?)",
                    [("state", STATE_OPEN),
                     ("campaign_owner", owner),
                     ("campaign_expiry", str(now + lease_seconds))])
                return True

        with self._lock:
            return _with_lock_retry(txn)

    def supervise(self, owner: str, lease_seconds: float
                  ) -> tuple[dict[str, int], list[tuple[str, str]]]:
        """One supervision tick: renew ``owner``'s campaign lease, then
        ``(counts, requeued)`` — what :meth:`requeue_expired` reclaimed
        and the counts after it.  The three steps stay methods of their
        own, off the wire: the end-to-end benchmark's tracer patches
        them by name."""
        self.renew_campaign(owner, lease_seconds)
        requeued = self.requeue_expired()
        return self.counts(), requeued

    def renew_campaign(self, owner: str, lease_seconds: float) -> None:
        """Extend ``owner``'s campaign lease (no-op for anyone else)."""
        now = time.time()

        def txn() -> None:
            with self._txn():
                if self._meta("campaign_owner") == owner:
                    self._conn.execute(
                        "INSERT OR REPLACE INTO meta (key, value) "
                        "VALUES ('campaign_expiry', ?)",
                        (str(now + lease_seconds),))

        with self._lock:
            _with_lock_retry(txn)

    def end_campaign(self, owner: str) -> None:
        """Release ``owner``'s campaign lease so the next campaign can
        begin immediately instead of waiting out the expiry, and close
        the queue (a campaign that failed before its enqueue)."""
        def txn() -> None:
            with self._txn():
                if self._meta("campaign_owner") == owner:
                    self._conn.execute(
                        "INSERT OR REPLACE INTO meta (key, value) "
                        "VALUES ('campaign_expiry', '0')")
                    self._set_state(STATE_CLOSED)

        with self._lock:
            _with_lock_retry(txn)

    def enqueue(self, specs: Iterable[JobSpec],
                max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> int:
        """Add jobs as pending and close the queue behind them (the
        pool is final); returns how many were actually added.

        Idempotent per job id: a job already in the queue is left
        exactly as it is.  This makes retried enqueues safe — under the
        network backend a commit whose response was lost gets re-sent,
        and clobbering the row would reset a live lease (and its
        attempts count) out from under the worker holding it.
        """
        now = time.time()
        rows = [(spec.job_id, spec.priority, JOB_PENDING, max_attempts,
                 pickle.dumps(spec, pickle.HIGHEST_PROTOCOL), now, now)
                for spec in specs]

        def insert() -> int:
            with self._txn():
                cur = self._conn.executemany(
                    "INSERT OR IGNORE INTO jobs (job_id, priority, "
                    "status, max_attempts, spec, created, updated) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?)", rows)
                self._set_state(STATE_CLOSED)
                return cur.rowcount

        with self._lock:
            added = _with_lock_retry(insert)
        self._m_enqueued.inc(added)
        if added:
            _journal.emit("queue_enqueue", added=added)
        return added

    def _set_state(self, state: str) -> None:
        # The caller holds the lock and an open transaction.
        self._conn.execute(
            "INSERT OR REPLACE INTO meta (key, value) "
            "VALUES ('state', ?)", (state,))

    def set_state(self, state: str) -> None:
        """Set the lifecycle state.  Off the wire and not called in the
        package (``enqueue`` and ``end_campaign`` close the queue): the
        end-to-end benchmark's tracer patches it by name."""
        def write() -> None:
            with self._txn():
                self._set_state(state)

        with self._lock:
            _with_lock_retry(write)

    def state(self) -> str:
        with self._lock:
            row = _with_lock_retry(lambda: self._conn.execute(
                "SELECT value FROM meta WHERE key = 'state'").fetchone())
        return row[0] if row is not None else STATE_OPEN

    def requeue_expired(self, now: float | None = None
                        ) -> list[tuple[str, str]]:
        """Reclaim every lease whose deadline passed.

        Jobs with attempts left go back to pending (another worker will
        pick them up); exhausted jobs are poisoned with an UNKNOWN
        verdict.  Returns ``(job_id, worker_id)`` for each reclaimed
        lease — the worker named is the one presumed dead.
        """
        deadline = now if now is not None else time.time()

        def reap() -> list[tuple[str, str, str]]:
            fates: list[tuple[str, str, str]] = []
            with self._txn():
                rows = self._conn.execute(
                    "SELECT job_id, worker_id, attempts, max_attempts, "
                    "spec FROM jobs WHERE status = ? AND lease_expiry < ?",
                    (JOB_LEASED, deadline)).fetchall()
                for job_id, worker_id, attempts, max_attempts, blob in rows:
                    if attempts >= max_attempts:
                        self._poison(job_id, blob,
                                     f"lease expired {attempts} times")
                        fate = "poisoned"
                    else:
                        self._conn.execute(
                            "UPDATE jobs SET status = ?, worker_id = NULL, "
                            "lease_expiry = NULL, updated = ? "
                            "WHERE job_id = ?",
                            (JOB_PENDING, deadline, job_id))
                        fate = "requeued"
                    fates.append((job_id, worker_id or "", fate))
            return fates

        with self._lock:
            fates = _with_lock_retry(reap)
        poisoned = sum(1 for _, _, fate in fates if fate == "poisoned")
        self._m_requeued.inc(len(fates) - poisoned)
        self._m_poisoned.inc(poisoned)
        for job_id, worker_id, fate in fates:
            _journal.emit(
                "queue_poison" if fate == "poisoned" else "queue_requeue",
                job_id=job_id, worker=worker_id)
        return [(job_id, worker_id) for job_id, worker_id, _ in fates]

    def _poison(self, job_id: str, spec_blob: bytes, error: str) -> None:
        """Mark an unrunnable job done with an UNKNOWN verdict (caller
        holds the lock and an open transaction)."""
        spec: JobSpec = pickle.loads(spec_blob)
        result = JobResult(
            job_id=job_id,
            outcome=CampaignRow.unknown(
                spec.design, spec.property_name,
                spec.specs[0] if spec.specs else ""),
            error=error)
        self._conn.execute(
            "UPDATE jobs SET status = ?, result = ?, updated = ? "
            "WHERE job_id = ?",
            (JOB_DONE, pickle.dumps(result, pickle.HIGHEST_PROTOCOL),
             time.time(), job_id))

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------

    def _seen(self, worker_id: str, now: float) -> None:
        """Register ``worker_id`` and stamp its liveness (caller holds
        the lock and a transaction).  An upsert: ``begin_campaign``
        wipes the workers table, and a worker from before the campaign
        must reappear, not vanish from the accounting."""
        self._conn.execute(
            "INSERT INTO workers (worker_id, started, last_heartbeat) "
            "VALUES (?, ?, ?) ON CONFLICT (worker_id) "
            "DO UPDATE SET last_heartbeat = excluded.last_heartbeat",
            (worker_id, now, now))

    def register_worker(self, worker_id: str) -> None:
        """Register a worker: a beat on no job.  Off the wire and not
        called in the package (a claim registers its worker): the
        end-to-end benchmark's tracer patches it by name."""
        self.heartbeat(Heartbeat(worker_id, time.time()), 0.0)

    def claim(self, worker_id: str,
              lease_seconds: float) -> Lease | None:
        """Atomically lease the best pending job, or ``None`` if idle;
        either way the worker is registered, in the same transaction.

        The lease carries the proof store's answers for the job's query
        keys (``Lease.known``), read after the claim commits: results a
        report lands in between are the next attempt's to find."""
        now = time.time()

        def txn() -> Lease | None:
            with self._txn():
                self._seen(worker_id, now)
                row = self._conn.execute(
                    "SELECT job_id, spec, attempts FROM jobs "
                    "WHERE status = ? ORDER BY priority DESC, created "
                    "LIMIT 1", (JOB_PENDING,)).fetchone()
                if row is None:
                    return None
                job_id, blob, attempts = row
                expires = now + lease_seconds
                self._conn.execute(
                    "UPDATE jobs SET status = ?, worker_id = ?, "
                    "lease_expiry = ?, attempts = ?, updated = ? "
                    "WHERE job_id = ?",
                    (JOB_LEASED, worker_id, expires, attempts + 1, now,
                     job_id))
                return Lease(spec=pickle.loads(blob),
                             worker_id=worker_id, expires=expires,
                             attempt=attempts + 1)

        with self._lock:
            lease = _with_lock_retry(txn)
        self._m_claims.labels(
            "claimed" if lease is not None else "empty").inc()
        if lease is None:
            return None
        _journal.emit("queue_claim", job_id=lease.spec.job_id,
                      worker=worker_id, attempt=lease.attempt)
        if not lease.spec.keys:
            return lease
        return replace(lease, known=self._proofs().load_many(
            list(lease.spec.keys)))

    def heartbeat(self, beat: Heartbeat, lease_seconds: float) -> None:
        """Record liveness and extend the lease of the job being beaten.

        Deadlines are stamped with *this process's* clock, never with
        ``beat.sent``: leases are judged against this clock in
        ``requeue_expired``, and under the HTTP backend this method runs
        server-side, so extending from the worker's clock would let
        cross-machine skew expire (or unduly prolong) the lease of a
        healthy, actively-beating worker.  ``beat.sent`` stays on the
        record as wire-level provenance only.

        Only the lease of ``beat.job_id`` is extended — never every
        lease the worker holds.  A claim whose response was lost in
        transit leaves a leased job the worker does not know about;
        since the worker never beats *that* job id, the orphan's lease
        expires and the job is requeued, instead of being kept alive
        forever by the worker's beats for other work.
        """
        now = time.time()

        def write() -> None:
            with self._txn():
                self._seen(beat.worker_id, now)
                if beat.job_id is not None:
                    self._conn.execute(
                        "UPDATE jobs SET lease_expiry = ? "
                        "WHERE job_id = ? AND worker_id = ? "
                        "AND status = ?",
                        (now + lease_seconds, beat.job_id,
                         beat.worker_id, JOB_LEASED))

        with self._lock:
            _with_lock_retry(write)
        self._m_heartbeats.inc()

    def report(self, result: JobResult, worker_id: str,
               lease_seconds: float) -> tuple[bool, Lease | None]:
        """A worker's one call per finished job: land its results,
        record its verdict, and claim its next job.

        Returns ``(accepted, next_lease)``: ``accepted`` is ``False``
        when this worker's lease was already reclaimed (the verdict is
        discarded, its proofs are kept), ``next_lease`` what
        :meth:`claim` hands this worker now — ``None`` when nothing is
        claimable."""
        accepted = self.complete(result, worker_id)
        return accepted, self.claim(worker_id, lease_seconds)

    def complete(self, result: JobResult, worker_id: str) -> bool:
        """The first step of :meth:`report`: write ``result.solved``
        into the proof store in one transaction, then record the
        verdict row without them; ``False`` if this worker's lease was
        already reclaimed (the late verdict is discarded — the one the
        requeued attempt produces is reported, so nothing is
        duplicated — but its proofs landed first, so that attempt finds
        them).  Not on the wire: the end-to-end benchmark's tracer
        patches it by name."""
        if result.solved:
            self._proofs().store_many(result.solved)
        now = time.time()
        blob = pickle.dumps(replace(result, solved={}),
                            pickle.HIGHEST_PROTOCOL)

        def txn() -> bool:
            with self._txn():
                cur = self._conn.execute(
                    "UPDATE jobs SET status = ?, result = ?, updated = ? "
                    "WHERE job_id = ? AND worker_id = ? AND status = ?",
                    (JOB_DONE, blob, now, result.job_id, worker_id,
                     JOB_LEASED))
                if cur.rowcount == 0:
                    return False
                self._seen(worker_id, now)
                self._conn.execute(
                    "UPDATE workers SET jobs_done = jobs_done + 1, "
                    "busy_seconds = busy_seconds + ? WHERE worker_id = ?",
                    (result.busy_seconds, worker_id))
                return True

        with self._lock:
            accepted = _with_lock_retry(txn)
        self._m_completions.labels(
            "accepted" if accepted else "discarded").inc()
        return accepted

    def fail(self, job_id: str, worker_id: str, error: str) -> None:
        """A worker could not run its job: requeue or poison it."""
        def txn() -> str:
            with self._txn():
                row = self._conn.execute(
                    "SELECT attempts, max_attempts, spec FROM jobs "
                    "WHERE job_id = ? AND worker_id = ? AND status = ?",
                    (job_id, worker_id, JOB_LEASED)).fetchone()
                if row is None:
                    return ""  # lease already reclaimed; nothing to do
                attempts, max_attempts, blob = row
                if attempts >= max_attempts:
                    self._poison(job_id, blob, error)
                    return "poisoned"
                self._conn.execute(
                    "UPDATE jobs SET status = ?, worker_id = NULL, "
                    "lease_expiry = NULL, updated = ? "
                    "WHERE job_id = ?",
                    (JOB_PENDING, time.time(), job_id))
                return "requeued"

        with self._lock:
            fate = _with_lock_retry(txn)
        if fate == "poisoned":
            self._m_poisoned.inc()
            _journal.emit("queue_poison", job_id=job_id, worker=worker_id,
                          error=error)
        elif fate == "requeued":
            self._m_requeued.inc()
            _journal.emit("queue_requeue", job_id=job_id,
                          worker=worker_id, error=error)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        with self._lock:
            rows = _with_lock_retry(lambda: self._conn.execute(
                "SELECT status, COUNT(*) FROM jobs "
                "GROUP BY status").fetchall())
        counts = dict(rows)
        # Depth gauges piggyback on every counts() call — the service's
        # /metrics handler and the coordinator's drain loop both poll
        # here, so scrapes see fresh levels without a separate query.
        for status in (JOB_PENDING, JOB_LEASED, JOB_DONE):
            self._m_depth.labels(status).set(counts.get(status, 0))
        return counts

    def unfinished(self) -> int:
        """Jobs not yet done (pending + leased).  Not on the wire and
        not called in the package: the end-to-end benchmark's tracer
        patches it by name."""
        counts = self.counts()
        return counts.get(JOB_PENDING, 0) + counts.get(JOB_LEASED, 0)

    def results(self) -> dict[str, JobResult]:
        """Every completed job's :class:`JobResult`, by job id."""
        with self._lock:
            rows = _with_lock_retry(lambda: self._conn.execute(
                "SELECT job_id, result FROM jobs "
                "WHERE status = ? AND result IS NOT NULL",
                (JOB_DONE,)).fetchall())
        out: dict[str, JobResult] = {}
        for job_id, blob in rows:
            try:
                loaded = pickle.loads(blob)
            except Exception:
                continue  # a torn result row reads as still-missing
            if isinstance(loaded, JobResult):
                out[job_id] = loaded
        return out

    def worker_stats(self) -> list[WorkerStat]:
        with self._lock:
            rows = _with_lock_retry(lambda: self._conn.execute(
                "SELECT worker_id, jobs_done, busy_seconds FROM workers "
                "ORDER BY worker_id").fetchall())
        return [WorkerStat(worker_id=w, jobs_done=j, busy_seconds=b)
                for w, j, b in rows]

    def worker_snapshot(self) -> list[dict]:
        """Fleet forensics for ``repro-verify status``: one plain dict
        per registered worker — heartbeat age, throughput, and the job
        it currently holds (with its age and lease time remaining) if
        any.  Plain dicts so the snapshot serialises over the network
        backend unchanged.
        """
        now = time.time()

        def read() -> tuple[list, list]:
            with self._txn():
                workers = self._conn.execute(
                    "SELECT worker_id, started, last_heartbeat, "
                    "jobs_done, busy_seconds FROM workers "
                    "ORDER BY worker_id").fetchall()
                leased = self._conn.execute(
                    "SELECT worker_id, job_id, updated, lease_expiry "
                    "FROM jobs WHERE status = ?", (JOB_LEASED,)).fetchall()
            return workers, leased

        with self._lock:
            workers, leased = _with_lock_retry(read)
        held = {w: (job_id, updated, expiry)
                for w, job_id, updated, expiry in leased}
        snapshot = []
        for worker_id, started, beat, jobs_done, busy in workers:
            job_id, claimed, expiry = held.get(worker_id,
                                               (None, None, None))
            snapshot.append({
                "worker_id": worker_id,
                "uptime_seconds": max(now - started, 0.0),
                "heartbeat_age_seconds": max(now - beat, 0.0),
                "jobs_done": jobs_done,
                "busy_seconds": busy,
                "current_job": job_id,
                "job_age_seconds":
                    max(now - claimed, 0.0) if claimed else None,
                "lease_remaining_seconds":
                    expiry - now if expiry else None,
            })
        return snapshot
