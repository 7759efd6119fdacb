"""The network backend's server half: ``repro-verify serve``.

:class:`ProofService` hosts one :class:`~repro.dist.queue.WorkQueue`
and one :class:`~repro.campaign.store.ProofStore` — the same SQLite
files a shared-directory deployment uses — behind a pure-stdlib
``http.server`` endpoint, so campaigns and workers on *other machines*
can rendezvous on a URL instead of a shared filesystem.

Wire protocol (deliberately minimal — both ends are this package):

* ``POST /queue/<method>`` and ``POST /store/<method>`` carry one
  pickled ``(args, kwargs)`` tuple and return the pickled result of
  calling that method on the service's queue or store.  The queue
  holds the service's store, so ``queue/claim`` and ``queue/report``
  read and write proofs in this process: a worker's job costs one
  request after its first claim.  The allow-list
  is :data:`~repro.dist.backend.QUEUE_METHODS` /
  :data:`~repro.dist.backend.STORE_METHODS` in :mod:`repro.dist.backend`,
  derived from the two backend protocols; anything else is a 404
  (booked under the ``invalid`` metrics endpoint, so unknown paths
  add no series).  A method that raises returns a 500 whose body
  pickles ``{"ok": False, "error": ...}``.
* ``GET /health`` returns a JSON snapshot (queue counts, store size,
  uptime) for load balancers, smoke tests, and humans with ``curl``.

Because the server *is* the ordinary SQLite queue/store, every
coordination guarantee is inherited rather than re-implemented: claims
stay atomic (one ``BEGIN IMMEDIATE`` per claim, whatever socket it
arrived on), heartbeats extend leases, reported verdicts are guarded by
the claiming (job, worker) pair, and expired leases are requeued.  A client
that loses its connection simply stops heartbeating and is handled as
a crashed worker.  Restarting the service on the same ``--cache-dir``
resumes the queue exactly where it stopped — lease deadlines are
absolute timestamps, so leases that "expired" during the outage are
requeued on the coordinator's first ``supervise`` tick after restart.

Security note: the wire format is pickle, which executes arbitrary
code on load.  Bind the service to trusted networks only (the default
bind is loopback); it authenticates nobody, by design — it is proof
infrastructure for a lab, not an internet service.
"""

from __future__ import annotations

import json
import pickle
import socket
import sqlite3
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.campaign.store import ProofStore, _is_lock_error
from repro.dist.backend import QUEUE_METHODS, STORE_METHODS
from repro.dist.queue import WorkQueue
from repro.obs import journal as _journal
from repro.obs import metrics as _metrics

DEFAULT_PORT = 7333


class _ServiceHandler(BaseHTTPRequestHandler):
    """Dispatches wire calls onto the owning :class:`ProofService`."""

    protocol_version = "HTTP/1.1"
    _status = 0     # last status this handler replied with (0 = none)

    # The service is headless infrastructure; per-request access logs
    # would swamp a campaign's output.  Errors still surface as HTTP
    # statuses the client reports.
    def log_message(self, format: str, *args) -> None:
        pass

    @property
    def service(self) -> "ProofService":
        return self.server.service  # type: ignore[attr-defined]

    def _reply(self, status: int, body: bytes,
               content_type: str = "application/octet-stream") -> None:
        self._status = status          # read by the request metrics
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        started = time.perf_counter()
        path = self.path.partition("?")[0]    # probes add cache-busters
        endpoint = path.rstrip("/") or "/health"
        if endpoint not in ("/health", "/metrics"):
            self._reply(404, b"{}", content_type="application/json")
            self.service.observe_request(
                "invalid", 404, time.perf_counter() - started)
            return
        # Probes go through the same in-flight accounting as wire
        # calls: a poller racing close() gets a JSON 503, never a
        # closed-handle traceback.
        if not self.service.checkin():
            self.service.note_unavailable("shutdown")
            self._reply(503, b'{"status": "closing", '
                             b'"reason": "shutdown"}',
                        content_type="application/json")
            self.service.observe_request(
                endpoint, 503, time.perf_counter() - started)
            return
        try:
            if endpoint == "/metrics":
                self._reply(
                    200, self.service.render_metrics().encode(),
                    content_type="text/plain; version=0.0.4; "
                                 "charset=utf-8")
            else:
                self._reply(200,
                            json.dumps(self.service.health()).encode(),
                            content_type="application/json")
        except Exception as exc:
            self._reply(500, json.dumps(
                {"status": "error",
                 "error": f"{type(exc).__name__}: {exc}"}).encode(),
                content_type="application/json")
        finally:
            self.service.checkout()
            self.service.observe_request(
                endpoint, self._status, time.perf_counter() - started)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        started = time.perf_counter()
        scope, _, method = self.path.strip("/").partition("/")
        target = self.service.dispatch_target(scope, method)
        # Only allow-listed calls get their own metric series: a label
        # per unknown path would let any client grow /metrics forever.
        endpoint = "invalid" if target is None else f"{scope}.{method}"
        if not self.service.checkin():
            # Shutting down: answer 503 (clients treat it as transient
            # unreachability) rather than racing the closing handles.
            # Tagged "shutdown" — distinct from the lock-contention 503
            # _dispatch emits — so operators can tell a deliberate
            # drain from a database under pressure.
            self.service.note_unavailable("shutdown")
            self._reply(503, pickle.dumps(
                {"ok": False, "error": "service shutting down"}))
            self.service.observe_request(
                endpoint, 503, time.perf_counter() - started)
            return
        try:
            self._dispatch(target)
        finally:
            self.service.checkout()
            self.service.observe_request(
                endpoint, self._status, time.perf_counter() - started)

    def _dispatch(self, target) -> None:
        if target is None:
            self._reply(404, pickle.dumps(
                {"ok": False,
                 "error": f"unknown endpoint {self.path!r}"}))
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            if length < 0:
                # rfile.read(-1) reads to EOF: a client that keeps its
                # socket open would hold this handler (and its slot).
                raise ValueError(f"negative Content-Length {length}")
            args, kwargs = pickle.loads(self.rfile.read(length)) \
                if length else ((), {})
        except Exception as exc:
            # The body may be unread: the stream has no next request.
            self.close_connection = True
            self._reply(400, pickle.dumps(
                {"ok": False, "error": f"bad request body: {exc}"}))
            return
        try:
            value = target(*args, **kwargs)
        except sqlite3.OperationalError as exc:
            # Lock contention that outlived the queue's own retries is
            # transient, not a protocol failure: 503 tells the client
            # to treat it like unreachability (retry / lease expiry),
            # exactly as the same error behaves on the sqlite backend.
            status = 503 if _is_lock_error(exc) else 500
            if status == 503:
                self.service.note_unavailable("lock_contention")
            self._reply(status, pickle.dumps(
                {"ok": False,
                 "error": f"{type(exc).__name__}: {exc}"}))
            return
        except Exception as exc:
            self._reply(500, pickle.dumps(
                {"ok": False,
                 "error": f"{type(exc).__name__}: {exc}"}))
            return
        self._reply(200, pickle.dumps(
            {"ok": True, "value": value}, pickle.HIGHEST_PROTOCOL))


class ProofService:
    """One queue + store served over HTTP (see module docstring).

    ``cache_dir`` is where the backing SQLite files live; pass the same
    directory across restarts to resume in-flight campaigns.  Without
    one, a scratch directory scopes all state to this service's
    lifetime (fine for throwaway runs, useless for crash recovery).
    ``port=0`` binds an ephemeral port — read :attr:`address` after
    construction.
    """

    def __init__(self, cache_dir: str | Path | None = None,
                 host: str = "127.0.0.1",
                 port: int = DEFAULT_PORT,
                 registry: _metrics.MetricsRegistry | None = None):
        if cache_dir is None:
            cache_dir = tempfile.mkdtemp(prefix="repro-serve-")
        self.cache_dir = Path(cache_dir)
        # A per-service registry (not the process default): /metrics
        # must describe THIS service's lifetime, even when tests run
        # several services in one process.
        self.metrics = registry or _metrics.MetricsRegistry()
        # One store for both scopes: a claim reads it and a report
        # writes it through the queue, in this process.
        self.store = ProofStore.open(self.cache_dir)
        self.queue = WorkQueue.open(self.cache_dir,
                                    registry=self.metrics,
                                    store=self.store)
        self.started = time.time()
        self._m_requests = self.metrics.counter(
            "repro_http_requests_total",
            "wire requests served, by endpoint and status",
            labels=("endpoint", "status"))
        self._m_latency = self.metrics.histogram(
            "repro_http_request_seconds",
            "wire request latency by endpoint", labels=("endpoint",))
        self._m_unavailable = self.metrics.counter(
            "repro_http_unavailable_total",
            "503 responses by reason (shutdown vs lock_contention)",
            labels=("reason",))
        self._m_uptime = self.metrics.gauge(
            "repro_service_uptime_seconds",
            "seconds since this service started")
        self._m_store_results = self.metrics.gauge(
            "repro_store_results", "results in the served proof store")
        self._httpd = ThreadingHTTPServer((host, port), _ServiceHandler)
        self._httpd.service = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None
        # In-flight request accounting: handler threads are daemons and
        # outlive server_close(), so close() must drain them before the
        # SQLite handles go away under a dispatching request.
        self._inflight = 0
        self._closing = False
        self._serving = False   # a serve_forever loop was entered
        self._drained = threading.Condition()

    # ------------------------------------------------------------------

    @property
    def host(self) -> str:
        """The host clients should dial: wildcard binds (0.0.0.0, ::)
        are advertised as this machine's hostname, since the bind
        address itself is meaningless from any other machine."""
        bound = self._httpd.server_address[0]
        if bound in ("0.0.0.0", "::"):
            return socket.gethostname()
        return bound

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def address(self) -> str:
        """The backend spec clients pass as ``--backend``."""
        return f"http://{self.host}:{self.port}"

    def checkin(self) -> bool:
        """Register one request; ``False`` once shutdown has begun."""
        with self._drained:
            if self._closing:
                return False
            self._inflight += 1
            return True

    def checkout(self) -> None:
        with self._drained:
            self._inflight -= 1
            if self._inflight == 0:
                self._drained.notify_all()

    def dispatch_target(self, scope: str, method: str):
        """The bound callable for one wire endpoint, or ``None``."""
        if scope == "queue" and method in QUEUE_METHODS:
            return getattr(self.queue, method)
        if scope == "store" and method in STORE_METHODS:
            if method == "size":
                return lambda: len(self.store)
            return getattr(self.store, method)
        return None

    def observe_request(self, endpoint: str, status: int,
                        seconds: float) -> None:
        self._m_requests.labels(endpoint, str(status)).inc()
        self._m_latency.labels(endpoint).observe(seconds)
        # Journal only the anomalies: per-request events for a 5 Hz
        # polling fleet would drown the forensics file in noise, but a
        # 4xx/5xx during a campaign is exactly what `explain` digs for.
        if status >= 400:
            _journal.emit("service_request", endpoint=endpoint,
                          status=status, seconds=round(seconds, 6))

    def note_unavailable(self, reason: str) -> None:
        self._m_unavailable.labels(reason).inc()

    def unavailable_counts(self) -> dict[str, int]:
        """503s served so far, split by cause — the distinction that
        tells a deliberate shutdown drain from SQLite lock pressure."""
        return {reason: int(self._m_unavailable.labels(reason).value)
                for reason in ("shutdown", "lock_contention")}

    def render_metrics(self) -> str:
        """The /metrics payload: refresh level gauges, then render."""
        self._m_uptime.set(round(time.time() - self.started, 3))
        self.queue.counts()    # publishes the queue-depth gauges
        self._m_store_results.set(len(self.store))
        return self.metrics.render()

    def health(self) -> dict:
        return {
            "status": "ok",
            "address": self.address,
            "cache_dir": str(self.cache_dir),
            "uptime_seconds": round(time.time() - self.started, 3),
            "queue": {"state": self.queue.state(),
                      "counts": self.queue.counts()},
            "store": {"results": len(self.store)},
            "unavailable_503": self.unavailable_counts(),
        }

    # ------------------------------------------------------------------

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close` (the CLI)."""
        with self._drained:
            if self._closing:
                return
            self._serving = True
        self._httpd.serve_forever(poll_interval=0.2)

    def start(self) -> "ProofService":
        """Serve on a background thread (tests, embedding)."""
        self._thread = threading.Thread(target=self.serve_forever,
                                        daemon=True)
        self._thread.start()
        return self

    def close(self) -> None:
        with self._drained:
            self._closing = True   # new requests get 503 from here on
            serving = self._serving
        # shutdown() waits for a serve_forever loop to stop: on a
        # service that never served it would wait forever.
        if serving:
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        # Drain dispatching handler threads (daemons that outlive
        # server_close) before closing the handles under them; a
        # request wedged past the timeout is abandoned to its fate.
        with self._drained:
            self._drained.wait_for(lambda: self._inflight == 0,
                                   timeout=5.0)
        self.queue.close()
        self.store.close()
