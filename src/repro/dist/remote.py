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

  - *Could not reach the service* (connection refused/reset, timeout,
    or a 503 for lock contention or shutdown):
    :class:`~repro.dist.protocol.BackendUnavailable`, an ``OSError``.
    The worker loop treats it as "poll again later": a worker cut off from
    the service stops reporting and heartbeating, its lease expires
    on the server, and the job is requeued for a reachable worker —
    connection loss degrades into the ordinary crashed-worker path,
    and a lost report costs a re-proof, never a verdict.
  - *The service answered with a failure* (unknown method — version
    skew, a server-side exception): :class:`RemoteOperationError`, a
    :class:`~repro.errors.ReproError` that is **not** swallowed by the
    worker's retry loop — a misconfigured or incompatible deployment
    surfaces loudly instead of polling in silence.

* **Store calls degrade.**  Only campaigns and sessions make them — a
  worker's store traffic rides on its queue calls (the lease brings
  what the store knows, the report carries what the job solved).  The
  store is a cache; a failing service —
  unreachable, erroring, *or older than this client* (a 404 for
  ``load_many`` / ``expected_walls`` / ``record_outcomes``) — reads as
  a miss on ``load``/``load_many``, a no-op on ``store``/
  ``record_outcomes``, and empty statistics — never an exception into
  a proof.

One queue call is one request: ``report`` stores a job's results,
records its verdict and claims the worker's next job on the server, so
a worker's job costs one round trip after its first claim.

Neither class spells out a method: each gets a generated forwarder
(a class attribute, so protocol ``isinstance`` checks see it) per name
in :data:`~repro.dist.backend.QUEUE_METHODS` / ``STORE_METHODS``.
"""

from __future__ import annotations

import http.client
import pickle
import urllib.error
import urllib.request
from typing import Callable

from repro.dist.backend import QUEUE_METHODS, STORE_METHODS
from repro.dist.protocol import BackendUnavailable
from repro.errors import ReproError

#: Per-request timeout (seconds), read at call time.  Every wire call
#: is one quick SQLite transaction server-side; anything slower means
#: the service is unreachable or melting, and the caller's
#: retry/degrade path should take over.
DEFAULT_TIMEOUT = 10.0


class RemoteOperationError(ReproError):
    """The HTTP backend answered, but reported a failure (treat as
    permanent: version skew, bad request, server-side exception)."""


def _forwarder(name: str, miss: Callable[[], object] | None):
    """One wire call as a method.  With a ``miss``, any remote failure
    reads as ``miss()`` instead of raising (the store's degrade path)."""
    def method(self, *args, **kwargs):
        try:
            return self._call(name, *args, **kwargs)
        except (BackendUnavailable, RemoteOperationError):
            if miss is None:
                raise
            return miss()
    method.__name__ = name
    return method


class _RemoteProxy:
    """Shared wire-call plumbing for the queue and store clients.

    A subclass names its URL ``scope`` and the wire ``methods`` it
    forwards; ``misses`` (store only) maps a method to what a failed
    call reads as — ``None`` for any method it does not name.
    """

    _scope: str  # "queue" | "store"

    def __init_subclass__(cls, *, scope: str, methods: frozenset[str],
                          misses: dict[str, Callable[[], object]]
                          | None = None):
        cls._scope = scope
        for name in methods:
            miss = None if misses is None \
                else misses.get(name, lambda: None)
            setattr(cls, name, _forwarder(name, miss))

    def __init__(self, url: str):
        self.url = url.rstrip("/")

    def _call(self, method: str, *args, **kwargs):
        body = pickle.dumps((args, kwargs), pickle.HIGHEST_PROTOCOL)
        request = urllib.request.Request(
            f"{self.url}/{self._scope}/{method}", data=body,
            headers={"Content-Type": "application/octet-stream"})
        try:
            with urllib.request.urlopen(request,
                                        timeout=DEFAULT_TIMEOUT) as response:
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
                raise BackendUnavailable(
                    f"{self._scope}.{method} busy: {detail}") from exc
            raise RemoteOperationError(
                f"{self._scope}.{method} failed: {detail}") from exc
        except (OSError, http.client.HTTPException,
                pickle.UnpicklingError, EOFError) as exc:
            raise BackendUnavailable(
                f"{self._scope}.{method} unreachable at {self.url}: "
                f"{exc}") from exc
        if not payload.get("ok"):
            raise RemoteOperationError(
                f"{self._scope}.{method} failed: "
                f"{payload.get('error', 'unknown error')}")
        return payload.get("value")

    def close(self) -> None:
        """Nothing to release: requests are independent (no session)."""


class RemoteWorkQueue(_RemoteProxy, scope="queue",
                      methods=QUEUE_METHODS):
    """:class:`~repro.dist.backend.QueueBackend` over HTTP.

    Every method is the same atomic server-side transaction the SQLite
    queue runs locally; this class only moves the arguments.  All
    transport failures raise
    :class:`~repro.dist.protocol.BackendUnavailable`.
    """


class RemoteProofStore(_RemoteProxy, scope="store",
                       methods=STORE_METHODS,
                       misses={"load_many": dict, "expected_walls": dict,
                               "size": int}):
    """:class:`~repro.dist.backend.StoreBackend` over HTTP.

    Implements the :class:`~repro.mc.cache.CacheBacking` protocol, so
    it plugs into :class:`~repro.mc.cache.ResultCache` as the disk tier
    exactly like a local :class:`~repro.campaign.store.ProofStore` —
    the "disk" is just on another machine.  The store degrade contract
    is preserved across the network: every method swallows transport
    failures and reports a miss / empty ledger instead.
    """

    def __len__(self) -> int:
        return self.size()
