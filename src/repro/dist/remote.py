"""The network backend's client half: remote queue and store handles.

:class:`RemoteWorkQueue` and :class:`RemoteProofStore` implement the
:class:`~repro.dist.backend.QueueBackend` /
:class:`~repro.dist.backend.StoreBackend` interfaces over the wire
protocol of :mod:`repro.dist.server`, so the coordinator, workers,
campaign scheduler, and :class:`~repro.flow.session.VerificationSession`
run unchanged against a ``repro-verify serve`` instance — the backend
spec is the only thing that differs.

Failure semantics mirror each side's local contract:

* **Queue calls raise — and say which way.**  The queue is
  coordination state, and the error type preserves the
  transient/permanent distinction the transport encodes:

  - *Could not reach the service* (connection refused/reset, timeout):
    :class:`RemoteBackendError`, an ``OSError`` and therefore a
    :data:`~repro.dist.backend.TRANSIENT_BACKEND_ERRORS` member.  The
    worker loop treats it as "poll again later": a worker cut off from
    the service stops completing and heartbeating, its lease expires
    on the server, and the job is requeued for a reachable worker —
    connection loss degrades into the ordinary crashed-worker path.
  - *The service answered with a failure* (unknown method — version
    skew, a server-side exception): :class:`RemoteOperationError`, a
    :class:`~repro.errors.ReproError` that is **not** swallowed by the
    worker's retry loop — a misconfigured or incompatible deployment
    surfaces loudly instead of polling in silence.

* **Store calls degrade.**  The store is a cache; a failing service —
  unreachable, erroring, *or older than this client* (a 404 for
  ``load_many`` / ``expected_walls`` / ``record_outcomes``) — reads as
  a miss on ``load``/``load_many``, a no-op on ``store``/``record``/
  ``record_outcomes``, and empty statistics — never an exception into
  a proof.
"""

from __future__ import annotations

import http.client
import pickle
import urllib.error
import urllib.request
from typing import Iterable

from repro.campaign.report import WorkerStat
from repro.dist.protocol import Heartbeat, JobResult, JobSpec, Lease
from repro.errors import ReproError
from repro.mc.result import CheckResult

#: Default per-request timeout (seconds).  Every wire call is one
#: quick SQLite transaction server-side; anything slower means the
#: service is unreachable or melting, and the caller's retry/degrade
#: path should take over.
DEFAULT_TIMEOUT = 10.0


class RemoteBackendError(OSError):
    """The HTTP backend could not be reached (treat as transient)."""


class RemoteOperationError(ReproError):
    """The HTTP backend answered, but reported a failure (treat as
    permanent: version skew, bad request, server-side exception)."""


#: What the store's degrade paths swallow: any remote failure at all.
_REMOTE_ERRORS = (RemoteBackendError, RemoteOperationError)


class _RemoteProxy:
    """Shared wire-call plumbing for the queue and store clients."""

    _scope = ""  # "queue" | "store"

    def __init__(self, url: str, timeout: float = DEFAULT_TIMEOUT):
        self.url = url.rstrip("/")
        self.timeout = timeout

    def _call(self, method: str, *args, **kwargs):
        body = pickle.dumps((args, kwargs), pickle.HIGHEST_PROTOCOL)
        request = urllib.request.Request(
            f"{self.url}/{self._scope}/{method}", data=body,
            headers={"Content-Type": "application/octet-stream"})
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as response:
                payload = pickle.loads(response.read())
        except urllib.error.HTTPError as exc:
            # The server answered with an error status: usually a real
            # rejection (unknown method, server-side exception) — but
            # 503 marks transient server-side contention, which must
            # stay on the retry path like unreachability.
            try:
                payload = pickle.loads(exc.read())
                detail = payload.get("error", str(exc))
            except Exception:
                detail = str(exc)
            if exc.code == 503:
                raise RemoteBackendError(
                    f"{self._scope}.{method} busy: {detail}") from exc
            raise RemoteOperationError(
                f"{self._scope}.{method} failed: {detail}") from exc
        except (OSError, http.client.HTTPException,
                pickle.UnpicklingError, EOFError) as exc:
            raise RemoteBackendError(
                f"{self._scope}.{method} unreachable at {self.url}: "
                f"{exc}") from exc
        if not payload.get("ok"):
            raise RemoteOperationError(
                f"{self._scope}.{method} failed: "
                f"{payload.get('error', 'unknown error')}")
        return payload.get("value")

    def close(self) -> None:
        """Nothing to release: requests are independent (no session)."""


class RemoteWorkQueue(_RemoteProxy):
    """:class:`~repro.dist.backend.QueueBackend` over HTTP.

    Every method is the same atomic server-side transaction the SQLite
    queue runs locally; this class only moves the arguments.  All
    transport failures raise :class:`RemoteBackendError`.
    """

    _scope = "queue"

    def reset(self) -> None:
        self._call("reset")

    def begin_campaign(self, owner: str, lease_seconds: float) -> bool:
        return self._call("begin_campaign", owner, lease_seconds)

    def renew_campaign(self, owner: str, lease_seconds: float) -> None:
        self._call("renew_campaign", owner, lease_seconds)

    def end_campaign(self, owner: str) -> None:
        self._call("end_campaign", owner)

    def enqueue(self, specs: Iterable[JobSpec],
                max_attempts: int | None = None) -> int:
        kwargs = {} if max_attempts is None \
            else {"max_attempts": max_attempts}
        # Materialize: generators don't pickle.
        return self._call("enqueue", list(specs), **kwargs)

    def set_state(self, state: str) -> None:
        self._call("set_state", state)

    def state(self) -> str:
        return self._call("state")

    def requeue_expired(self, now: float | None = None
                        ) -> list[tuple[str, str]]:
        return self._call("requeue_expired", now)

    def register_worker(self, worker_id: str, pid: int) -> None:
        self._call("register_worker", worker_id, pid)

    def claim(self, worker_id: str,
              lease_seconds: float) -> Lease | None:
        return self._call("claim", worker_id, lease_seconds)

    def heartbeat(self, beat: Heartbeat, lease_seconds: float) -> None:
        self._call("heartbeat", beat, lease_seconds)

    def complete(self, result: JobResult, worker_id: str) -> bool:
        return self._call("complete", result, worker_id)

    def fail(self, job_id: str, worker_id: str, error: str) -> None:
        self._call("fail", job_id, worker_id, error)

    def counts(self) -> dict[str, int]:
        return self._call("counts")

    def unfinished(self) -> int:
        return self._call("unfinished")

    def results(self) -> dict[str, JobResult]:
        return self._call("results")

    def worker_stats(self) -> list[WorkerStat]:
        return self._call("worker_stats")

    def worker_snapshot(self) -> list[dict]:
        return self._call("worker_snapshot")


class RemoteProofStore(_RemoteProxy):
    """:class:`~repro.dist.backend.StoreBackend` over HTTP.

    Implements the :class:`~repro.mc.cache.CacheBacking` protocol, so
    it plugs into :class:`~repro.mc.cache.ResultCache` as the disk tier
    exactly like a local :class:`~repro.campaign.store.ProofStore` —
    the "disk" is just on another machine.  The store degrade contract
    is preserved across the network: every method swallows transport
    failures and reports a miss / empty history instead.
    """

    _scope = "store"

    #: Remote stores have no local file; ``run_campaign`` keys on this.
    path = None

    def load(self, key: str) -> CheckResult | None:
        try:
            return self._call("load", key)
        except _REMOTE_ERRORS:
            return None

    def load_many(self, keys: list[str]) -> dict[str, CheckResult]:
        try:
            return self._call("load_many", list(keys))
        except _REMOTE_ERRORS:
            return {}

    def store(self, key: str, result: CheckResult) -> None:
        try:
            self._call("store", key, result)
        except _REMOTE_ERRORS:
            pass

    def record(self, *, design: str, family: str, property_name: str,
               strategy: str, status: str, wall_seconds: float,
               from_cache: bool) -> None:
        try:
            self._call("record", design=design, family=family,
                       property_name=property_name, strategy=strategy,
                       status=status, wall_seconds=wall_seconds,
                       from_cache=from_cache)
        except _REMOTE_ERRORS:
            pass

    def record_outcomes(self, history: list[dict],
                        ledger: list[dict]) -> None:
        try:
            self._call("record_outcomes", list(history), list(ledger))
        except _REMOTE_ERRORS:
            pass

    def history_size(self) -> int:
        try:
            return self._call("history_size")
        except _REMOTE_ERRORS:
            return 0

    def expected_wall(self, design: str,
                      property_name: str) -> float | None:
        try:
            return self._call("expected_wall", design, property_name)
        except _REMOTE_ERRORS:
            return None

    def expected_walls(self, design: str | None = None
                       ) -> dict[tuple[str, str], float]:
        try:
            return self._call("expected_walls", design)
        except _REMOTE_ERRORS:
            return {}

    def record_ledger(self, entry: dict) -> None:
        try:
            self._call("record_ledger", entry)
        except _REMOTE_ERRORS:
            pass

    def ledger_entry(self, design: str,
                     property_name: str) -> dict | None:
        try:
            return self._call("ledger_entry", design, property_name)
        except _REMOTE_ERRORS:
            return None

    def ledger_rows(self, design: str | None = None) -> list[dict]:
        try:
            return self._call("ledger_rows", design)
        except _REMOTE_ERRORS:
            return []

    def clear(self) -> None:
        try:
            self._call("clear")
        except _REMOTE_ERRORS:
            pass

    def __len__(self) -> int:
        try:
            return self._call("size")
        except _REMOTE_ERRORS:
            return 0
