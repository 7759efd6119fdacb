"""Network backend: serve/remote parity, failure modes, recovery."""

import json
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.campaign import CampaignRow, ProofStore
from repro.designs import get_design
from repro.dist import (JOB_DONE, JOB_PENDING, STATE_CLOSED, STATE_OPEN,
                        Backend, Heartbeat, JobResult, JobSpec,
                        ProofService, RemoteBackendError,
                        RemoteOperationError, RemoteProofStore,
                        RemoteWorkQueue, WorkQueue, Worker, open_queue,
                        open_store, parse_backend)
from repro.flow.session import run_campaign
from repro.mc.result import CheckResult, ProofStats, Status

#: Nothing listens here: connecting must fail fast (port 9 = discard).
DEAD_URL = "http://127.0.0.1:9"


def _spec(job_id: str = "d1::p1", design: str = "d1", prop: str = "p1",
          priority: float = 0.0) -> JobSpec:
    return JobSpec(job_id=job_id, design=design, property_name=prop,
                   specs=("k_induction", "bmc"),
                   priority=priority)


def _result(spec: JobSpec, status: str = "proven",
            worker_id: str = "w1") -> JobResult:
    return JobResult(
        job_id=spec.job_id,
        outcome=CampaignRow(
            design=spec.design, property_name=spec.property_name,
            status=status, strategy="k_induction", wall_seconds=0.5,
            k=2, from_cache=False, worker=worker_id),
        busy_seconds=0.5)


def _row(prop: str = "p", wall: float = 0.1, **fields) -> CampaignRow:
    """One ledger row of design ``d``."""
    return CampaignRow(**{
        "design": "d", "property_name": prop, "family": "fam",
        "status": "proven", "strategy": "bmc", "wall_seconds": wall,
        "k": 1, "from_cache": False, **fields})


def _reap(queue) -> list[tuple[str, str]]:
    """The expired leases one supervision tick reclaims."""
    return queue.supervise("coordinator", 30)[1]


def _design_specs(design_name: str, max_k: int = 3) -> list[JobSpec]:
    design = get_design(design_name)
    race = (f"k_induction(max_k={max_k})", "bmc")
    return [JobSpec(job_id=f"{design_name}::{spec.name}",
                    design=design_name, property_name=spec.name,
                    specs=race, priority=float(-i))
            for i, spec in enumerate(design.properties)]


@pytest.fixture
def service(tmp_path):
    svc = ProofService(cache_dir=tmp_path / "served", port=0).start()
    yield svc
    svc.close()


class TestBackendParsing:
    def test_spec_forms(self, tmp_path):
        assert parse_backend("sqlite:/x/y") == Backend("sqlite", "/x/y")
        assert parse_backend("/x/y") == Backend("sqlite", "/x/y")
        assert parse_backend(tmp_path) == \
            Backend("sqlite", str(tmp_path))
        assert parse_backend("http://h:80/") == \
            Backend("http", "http://h:80")
        back = Backend("http", "http://h:80")
        assert parse_backend(back) is back

    def test_spec_round_trips(self, tmp_path):
        for spec in (f"sqlite:{tmp_path}", "http://host:7333"):
            assert parse_backend(spec).spec() == spec

    def test_bad_specs_are_rejected(self):
        with pytest.raises(ValueError):
            parse_backend("")
        with pytest.raises(ValueError):
            parse_backend("sqlite:")

    def test_factories_pick_the_implementation(self, tmp_path):
        assert isinstance(open_queue(tmp_path), WorkQueue)
        assert isinstance(open_store(f"sqlite:{tmp_path}"), ProofStore)
        assert isinstance(open_queue("http://h:1"), RemoteWorkQueue)
        assert isinstance(open_store("http://h:1"), RemoteProofStore)

    def test_every_implementation_defines_the_whole_protocol(self, service):
        """The wire allow-lists are computed from the two protocols, so
        a protocol method is remotely callable by construction — given
        that the local and the remote class both define it.  Members a
        protocol inherits (StoreBackend's CacheBacking base) count."""
        from typing import Generic, Protocol

        from repro.dist import QueueBackend, StoreBackend
        from repro.dist.backend import QUEUE_METHODS, STORE_METHODS

        def declared(protocol):
            return {name for base in protocol.__mro__
                    if base not in (Protocol, Generic, object)
                    for name, member in vars(base).items()
                    if callable(member) and
                    (not name.startswith("_") or name == "__len__")}

        for protocol, implementations in (
                (QueueBackend, (WorkQueue, RemoteWorkQueue)),
                (StoreBackend, (ProofStore, RemoteProofStore))):
            methods = declared(protocol)
            assert "close" in methods and len(methods) >= 8
            for cls in implementations:
                missing = sorted(name for name in methods
                                 if not callable(getattr(cls, name, None)))
                assert not missing, (cls.__name__, missing)
        assert {"load", "load_many", "store"} <= declared(StoreBackend)
        assert QUEUE_METHODS == declared(QueueBackend) - {"close"}
        assert STORE_METHODS == \
            declared(StoreBackend) - {"close", "__len__"} | {"size"}
        # report took complete's place: it lands the job's proofs,
        # records its verdict and claims the next job in one request.
        assert "report" in QUEUE_METHODS and "complete" not in QUEUE_METHODS
        # One supervise call per coordinator tick carries the requeue
        # and the campaign renewal; a claim registers its worker, and
        # enqueue / end_campaign close the queue.
        assert "supervise" in QUEUE_METHODS and not {
            "requeue_expired", "renew_campaign", "register_worker",
            "set_state"} & QUEUE_METHODS
        assert (len(QUEUE_METHODS), len(STORE_METHODS)) == (13, 7)
        for scope, names in (("queue", QUEUE_METHODS),
                             ("store", STORE_METHODS)):
            for name in names:
                assert service.dispatch_target(scope, name) is not None
            assert service.dispatch_target(scope, "close") is None


class TestRemoteQueue:
    """The remote queue preserves the SQLite queue's lease semantics."""

    def test_claim_is_priority_ordered_and_exclusive(self, service):
        queue = RemoteWorkQueue(service.address)
        queue.enqueue([_spec("a", priority=1.0),
                       _spec("b", priority=5.0)])
        first = queue.claim("w1", lease_seconds=30)
        assert first.spec.job_id == "b"
        assert first.attempt == 1
        assert queue.claim("w2", lease_seconds=30).spec.job_id == "a"
        assert queue.claim("w3", lease_seconds=30) is None

    def test_report_and_stats_round_trip(self, service):
        queue = RemoteWorkQueue(service.address)
        queue.enqueue([_spec("a")])
        lease = queue.claim("w1", lease_seconds=30)
        assert queue.report(_result(lease.spec), "w1",
                            lease_seconds=30) == (True, None)
        assert queue.counts() == {JOB_DONE: 1}
        assert queue.results()["a"].outcome.status == "proven"
        (stat,) = queue.worker_stats()
        assert (stat.worker_id, stat.jobs_done) == ("w1", 1)

    def test_expired_lease_requeues_over_the_wire(self, service):
        queue = RemoteWorkQueue(service.address)
        queue.enqueue([_spec("a")])
        queue.claim("w1", lease_seconds=0.01)
        time.sleep(0.02)
        assert _reap(queue) == [("a", "w1")]
        assert queue.counts() == {JOB_PENDING: 1}
        assert queue.claim("w2", lease_seconds=30).attempt == 2

    def test_heartbeat_extends_the_lease(self, service):
        queue = RemoteWorkQueue(service.address)
        queue.enqueue([_spec("a")])
        queue.claim("w1", lease_seconds=0.05)
        queue.heartbeat(Heartbeat(worker_id="w1", sent=time.time(),
                                  job_id="a"), lease_seconds=60)
        time.sleep(0.06)
        assert _reap(queue) == []

    def test_heartbeat_extends_only_the_named_job(self, service):
        """A claim whose response was lost leaves an orphaned lease
        the worker does not know it holds.  Its beats for other work
        must not keep the orphan alive: only the named job's lease is
        extended, so the orphan expires and is requeued."""
        queue = RemoteWorkQueue(service.address)
        queue.enqueue([_spec("a", priority=2.0),
                       _spec("b", priority=1.0)])
        queue.claim("w1", lease_seconds=0.05)           # knows about a
        queue.claim("w1", lease_seconds=0.05)           # b: lost reply
        queue.heartbeat(Heartbeat(worker_id="w1", sent=time.time(),
                                  job_id="a"), lease_seconds=60)
        time.sleep(0.06)
        assert _reap(queue) == [("b", "w1")]

    def test_heartbeat_ignores_skewed_worker_clock(self, service):
        """Lease deadlines are stamped by the server's clock: a healthy
        worker whose own clock is an hour behind must still extend its
        lease, not have it expire out from under it."""
        queue = RemoteWorkQueue(service.address)
        queue.enqueue([_spec("a")])
        queue.claim("w1", lease_seconds=0.05)
        queue.heartbeat(Heartbeat(worker_id="w1",
                                  sent=time.time() - 3600,
                                  job_id="a"), lease_seconds=60)
        time.sleep(0.06)
        assert _reap(queue) == []

    def test_late_report_from_presumed_dead_remote_worker_discarded(
            self, service):
        """Two clients, one job: the requeued claimant's verdict wins;
        the presumed-dead worker's late report is discarded."""
        stale_client = RemoteWorkQueue(service.address)
        fresh_client = RemoteWorkQueue(service.address)
        stale_client.enqueue([_spec("a")])
        stale = stale_client.claim("w1", lease_seconds=0.01)
        time.sleep(0.02)
        _reap(fresh_client)
        fresh = fresh_client.claim("w2", lease_seconds=30)
        assert fresh_client.report(_result(fresh.spec, worker_id="w2"),
                                   "w2", lease_seconds=30) == (True, None)
        assert stale_client.report(_result(stale.spec, worker_id="w1"),
                                   "w1", lease_seconds=30) == (False, None)
        results = fresh_client.results()
        assert results["a"].outcome.worker == "w2"
        assert fresh_client.counts() == {JOB_DONE: 1}

    def test_fail_requeues_then_poisons(self, service):
        queue = RemoteWorkQueue(service.address)
        queue.enqueue([_spec("a")], max_attempts=2)
        queue.claim("w1", lease_seconds=30)
        queue.fail("a", "w1", "boom")
        assert queue.counts() == {JOB_PENDING: 1}
        queue.claim("w1", lease_seconds=30)
        queue.fail("a", "w1", "boom again")
        poisoned = queue.results()["a"]
        assert poisoned.outcome.status == "unknown"
        assert poisoned.error == "boom again"

    def test_state_and_begin_campaign(self, service):
        queue = RemoteWorkQueue(service.address)
        assert queue.state() == STATE_OPEN
        queue.enqueue([_spec("a")])          # the pool is final
        assert queue.state() == STATE_CLOSED
        assert queue.begin_campaign("c1", lease_seconds=30) is True
        assert queue.counts() == {}
        assert queue.state() == STATE_OPEN


class TestRemoteStore:
    def test_store_load_round_trip(self, service):
        store = RemoteProofStore(service.address)
        result = CheckResult("p", Status.PROVEN, k=2,
                             stats=ProofStats(wall_seconds=0.5))
        store.store("key1", result)
        loaded = store.load("key1")
        assert loaded == result
        assert store.load("missing") is None
        assert len(store) == 1

    def test_ledger_round_trip(self, service):
        store = RemoteProofStore(service.address)
        store.record_outcomes([_row(wall=0.25), _row("q", worker="w1")])
        assert store.expected_walls() == {("d", "p"): pytest.approx(0.25),
                                          ("d", "q"): pytest.approx(0.1)}
        assert store.ledger_entry("d", "q")["worker"] == "w1"
        # The service's own on-disk store holds the same rows.
        served = ProofStore.open(service.cache_dir)
        assert served.ledger_entry("d", "q") == store.ledger_entry("d", "q")

    def test_unreachable_store_degrades_to_misses(self, fabric_timing):
        """The cache contract across the network: no proof ever fails
        because the store is down — loads miss, stores drop."""
        fabric_timing(timeout=0.5)
        store = RemoteProofStore(DEAD_URL)
        result = CheckResult("p", Status.PROVEN, k=1,
                             stats=ProofStats())
        store.store("k", result)          # no raise
        assert store.load("k") is None
        store.record_outcomes([_row()])   # no raise
        assert store.expected_walls() == {}
        assert store.ledger_entry("d", "p") is None
        assert len(store) == 0

    def test_queue_calls_raise_on_unreachable_backend(self,
                                                     fabric_timing):
        fabric_timing(timeout=0.5)
        queue = RemoteWorkQueue(DEAD_URL)
        with pytest.raises(RemoteBackendError):
            queue.claim("w1", lease_seconds=30)
        with pytest.raises(RemoteBackendError):
            queue.enqueue([_spec("a")])


@pytest.fixture(params=["sqlite", "http"])
def any_store(request, service, tmp_path):
    """The same assertions against both StoreBackend implementations."""
    if request.param == "http":
        return RemoteProofStore(service.address)
    return ProofStore.open(tmp_path / "local")


def _rich_results() -> dict[str, CheckResult]:
    """A refutation with its trace and a PDR proof with its invariant."""
    from repro.ir import expr as E
    from repro.ir.system import Signal
    from repro.trace.trace import Trace, TraceKind
    trace = Trace([Signal("count", 4, "state")],
                  [{"count": 3}, {"count": 4}], kind=TraceKind.BMC_CEX,
                  property_name="bad")
    count = E.var("count", 4)
    return {
        "k-violated": CheckResult("bad", Status.VIOLATED, k=1, cex=trace,
                                  stats=ProofStats(wall_seconds=0.5,
                                                   conflicts=7)),
        "k-proven": CheckResult("good", Status.PROVEN, k=2,
                                invariant=[E.ule(count, E.const(9, 4)),
                                           E.ne(count, E.const(15, 4))]),
    }


class TestBatchSurface:
    """``load_many`` / ``expected_walls`` / ``record_outcomes``: one
    call where a campaign used to make one per job — same answers on
    SQLite and over HTTP, same degrade contract as the per-item calls."""

    NEW_CALLS = {"load_many", "expected_walls", "record_outcomes"}

    def test_the_protocol_carries_the_batch_calls_onto_the_wire(self):
        from repro.dist.backend import STORE_METHODS
        assert self.NEW_CALLS <= STORE_METHODS

    def test_load_many_round_trips_traces_and_invariants(self, any_store):
        stored = _rich_results()
        for key, result in stored.items():
            any_store.store(key, result)
        found = any_store.load_many(["k-proven", "absent", "k-violated"])
        assert sorted(found) == ["k-proven", "k-violated"]
        assert found["k-violated"].cex.steps == \
            stored["k-violated"].cex.steps
        assert found["k-violated"].stats == stored["k-violated"].stats
        # Unpickled expressions land in this process's intern table.
        assert found["k-proven"].invariant == stored["k-proven"].invariant
        for key, result in found.items():
            assert any_store.load(key) == result

    def test_load_many_past_1000_keys_and_with_none(self, any_store):
        stored = _rich_results()
        for key, result in stored.items():
            any_store.store(key, result)
        keys = [f"absent-{i}" for i in range(1500)]
        keys[3:3] = ["k-proven"]
        keys.append("k-violated")
        assert sorted(any_store.load_many(keys)) == sorted(stored)
        assert any_store.load_many([]) == {}

    def test_ledger_is_written_and_read_in_one_call_each(self, any_store):
        any_store.record_outcomes([
            _row(wall=0.4, strategy="bmc(bound=5)", provenance="engine",
                 k=5, attempts=[{"strategy": "bmc(bound=5)"}]),
            _row("q", wall=0.6, from_cache=True, provenance="store")])
        assert any_store.expected_walls() == \
            {("d", "p"): pytest.approx(0.4), ("d", "q"): pytest.approx(0.6)}
        assert any_store.expected_walls("d") == any_store.expected_walls()
        assert any_store.expected_walls("other") == {}
        row = any_store.ledger_entry("d", "p")
        assert (row["property"], row["k"]) == ("p", 5)
        assert row["attempts"] == [{"strategy": "bmc(bound=5)"}]
        assert any_store.ledger_entry("d", "q")["from_cache"] is True
        assert any_store.ledger_entry("d", "r") is None

    def test_unreachable_service_degrades(self, fabric_timing):
        fabric_timing(timeout=0.5)
        store = RemoteProofStore(DEAD_URL)
        assert store.load_many(["k"]) == {}
        assert store.expected_walls() == {}
        store.record_outcomes([_row()])      # no raise

    @pytest.fixture
    def older_service(self, service, monkeypatch):
        """A service from before this PR: the three batch endpoints do
        not exist, so it answers 404 for them."""
        from repro.dist import server
        monkeypatch.setattr(server, "STORE_METHODS",
                            server.STORE_METHODS - self.NEW_CALLS)
        return service

    def test_older_server_reads_as_nothing_found(self, older_service):
        store = RemoteProofStore(older_service.address)
        with pytest.raises(RemoteOperationError):
            store._call("load_many", ["k"])     # it really is a 404
        store.store("k", _rich_results()["k-proven"])
        assert store.load("k") is not None
        assert store.load_many(["k"]) == {}
        assert store.expected_walls() == {}
        store.record_outcomes([_row()])
        assert store.ledger_entry("d", "p") is None

    def test_campaign_against_an_older_server_still_verifies(
            self, older_service, coordinators):
        """Version skew costs speed, never a verdict: every batched
        read finds nothing, so everything is enqueued and run as if the
        store were cold, and the batched record is dropped."""
        def run():
            return run_campaign(designs=["updown_counter"], max_k=3,
                                backend=older_service.address, workers=1,
                                lease_seconds=10)

        cold, warm = run(), run()
        assert cold.mismatches == warm.mismatches == 0
        assert {(r.property_name, r.status) for r in warm.rows} == \
            {(r.property_name, r.status) for r in cold.rows}
        assert sum(s.jobs_done for s in warm.worker_stats) == \
            len(warm.rows)
        assert all(r.worker for r in warm.rows)
        assert [c._spawned for c in coordinators] == [1, 1]
        assert ProofStore.open(older_service.cache_dir
                               ).expected_walls() == {}


class TestService:
    def test_health_endpoint_is_json(self, service):
        # Load balancers and probes routinely append cache-busting
        # query strings; both forms must answer.
        for url in (f"{service.address}/health",
                    f"{service.address}/health?probe=1"):
            with urllib.request.urlopen(url, timeout=5) as response:
                payload = json.loads(response.read())
            assert payload["status"] == "ok"
            assert payload["queue"]["state"] == STATE_OPEN
            assert payload["store"]["results"] == 0

    def test_negative_content_length_is_refused_at_once(self, tmp_path):
        """``rfile.read(-1)`` would read to EOF: a client that keeps its
        socket open must get its 400 at once, not hold the handler and
        its in-flight slot until ``close`` gives up draining."""
        import socket
        from urllib.parse import urlsplit

        svc = ProofService(cache_dir=tmp_path / "served", port=0).start()
        where = urlsplit(svc.address)
        try:
            with socket.create_connection((where.hostname, where.port),
                                          timeout=2) as sock:
                sock.sendall(b"POST /store/load HTTP/1.1\r\n"
                             b"Host: x\r\nContent-Length: -1\r\n\r\n")
                status_line = sock.recv(4096).split(b"\r\n", 1)[0]
                assert status_line.split()[1] == b"400", status_line
                started = time.monotonic()
                svc.close()          # the client still holds its socket
                assert time.monotonic() - started < 2.0
        finally:
            svc.close()

    def test_closing_a_service_that_never_served_returns(self,
                                                          tmp_path):
        svc = ProofService(cache_dir=tmp_path / "unstarted", port=0)
        closer = threading.Thread(target=svc.close, daemon=True)
        closer.start()
        closer.join(timeout=10)
        assert not closer.is_alive(), "close() waits for a loop never run"

    def test_unknown_methods_are_rejected_as_permanent(self, service):
        """Version skew / bad endpoints are RemoteOperationError — a
        ReproError, not an OSError — so worker retry loops do NOT
        swallow them and misconfiguration surfaces loudly."""
        queue = RemoteWorkQueue(service.address)
        with pytest.raises(RemoteOperationError):
            queue._call("no_such_method")
        store = RemoteProofStore(service.address)
        with pytest.raises(RemoteOperationError):
            store._call("_quarantine_corrupt_file")
        assert not issubclass(RemoteOperationError, OSError)

    def test_server_side_errors_surface_with_detail(self, service):
        queue = RemoteWorkQueue(service.address)
        with pytest.raises(RemoteOperationError, match="TypeError"):
            queue._call("claim")   # missing required arguments

    REMOVED_CALLS = (
        ("store", "strategy_stats", (), {}),
        ("store", "property_stats", (), {}),
        ("queue", "reset", (), {}),
        ("queue", "unfinished", (), {}),
        ("store", "clear", (), {}),
        ("store", "record", (), dict(
            design="d", family="f", property_name="p", strategy="bmc",
            status="proven", wall_seconds=0.1, from_cache=False)),
        ("store", "record_ledger", (_row("q"),), {}),
        ("store", "history_size", (), {}),
        ("store", "expected_wall", ("d", "p"), {}),
        ("store", "ledger_rows", (), {}),
        ("queue", "complete", (_result(_spec("a")), "w1"), {}),
        ("queue", "register_worker", ("w1",), {}),
        ("queue", "requeue_expired", (), {}),
        ("queue", "renew_campaign", ("c1", 30), {}),
        ("queue", "set_state", (STATE_OPEN,), {}),
    )

    def test_removed_calls_are_gone_and_touch_nothing(self, service):
        """Calls no campaign makes are off the wire: each answers 404
        (a permanent RemoteOperationError, which an older client's
        store degrade path reads as a miss), no client generates a
        method for it, and the served queue and store keep their rows.
        The history aggregates went with adaptive selection, the
        history table with the ledger's becoming the one verdict
        record; ``supervise`` carries the requeue and the campaign
        renewal, a claim registers its worker, and enqueue closes the
        queue; the rest had no caller at all."""
        queue = RemoteWorkQueue(service.address)
        store = RemoteProofStore(service.address)
        queue.enqueue([_spec("a")])
        store.store("k", CheckResult("p", Status.PROVEN, k=1,
                                     stats=ProofStats()))
        store.record_outcomes([_row()])
        clients = {"queue": queue, "store": store}
        for scope, name, args, kwargs in self.REMOVED_CALLS:
            client = clients[scope]
            assert not hasattr(client, name), name
            with pytest.raises(RemoteOperationError,
                               match="unknown endpoint") as caught:
                client._call(name, *args, **kwargs)
            assert caught.value.__cause__.code == 404
        assert queue.counts() == {JOB_PENDING: 1}
        assert queue.state() == STATE_CLOSED
        assert len(store) == 1
        assert store.expected_walls() == {("d", "p"): pytest.approx(0.1)}
        assert store.ledger_entry("d", "p")["status"] == "proven"
        assert store.ledger_entry("d", "q") is None


class TestWorkerOverHTTP:
    def test_worker_drains_queue_into_served_store(self, service,
                                                   fabric_timing):
        fabric_timing(poll=0.02)
        queue = RemoteWorkQueue(service.address)
        queue.enqueue(_design_specs("updown_counter"))
        worker = Worker(service.address, worker_id="w1",
                        lease_seconds=10)
        assert worker.run() == 2
        results = queue.results()
        assert {r.outcome.status for r in results.values()} == {"proven"}
        assert all(r.outcome.worker == "w1"
                   for r in results.values())
        # Verdicts landed in the server's store under content keys.
        assert len(RemoteProofStore(service.address)) > 0
        assert len(ProofStore.open(service.cache_dir)) > 0

    def test_worker_with_connection_refused_idles_out(self,
                                                      fabric_timing):
        """A worker pointed at a dead service exits cleanly after its
        idle timeout instead of crashing or spinning forever."""
        fabric_timing(poll=0.02, timeout=0.5)
        worker = Worker(DEAD_URL, worker_id="w1", lease_seconds=1,
                        idle_timeout=0.2)
        assert worker.run() == 0

    def test_worker_surfaces_permanent_backend_errors(self, tmp_path,
                                                      fabric_timing):
        """Unreachability is retried; corruption is not: a permanent
        backend failure must crash the worker loudly, never be ridden
        out as 'idle' until it exits 0 with no hint."""
        import sqlite3

        fabric_timing(poll=0.02)
        worker = Worker(tmp_path, worker_id="w1", lease_seconds=1,
                        idle_timeout=5.0)
        broken = sqlite3.DatabaseError("file is not a database")

        def corrupt_claim(worker_id, lease_seconds):
            raise broken

        worker.queue.claim = corrupt_claim
        with pytest.raises(sqlite3.DatabaseError):
            worker.run()

    def test_inline_drain_keeps_renewing_the_campaign_claim(
            self, tmp_path, fabric_timing):
        """A coordinator draining inline is blocked inside Worker.run,
        so the inline worker's beats must renew the campaign ownership
        claim — otherwise it lapses mid-drain and a second campaign
        could take over and wipe the queue."""
        queue = WorkQueue.open(tmp_path)
        assert queue.begin_campaign("c1", lease_seconds=0.3) is True
        queue.enqueue(_design_specs("updown_counter"))
        fabric_timing(poll=0.02)
        done = Worker(tmp_path, worker_id="w-inline",
                      lease_seconds=0.15,
                      campaign_owner="c1", campaign_lease=60.0).run()
        assert done == 2
        time.sleep(0.35)    # past the original 0.3s claim window
        # The claim was renewed during the drain: a second campaign is
        # still refused rather than taking over.
        assert queue.begin_campaign("c2", lease_seconds=60) is False


class TestServerRestart:
    def test_restart_mid_campaign_requeues_leased_jobs(self, tmp_path,
                                                       fabric_timing):
        """Kill the server while a job is leased: after a restart on
        the same cache dir, the lease expires, the job is requeued, a
        survivor completes it, and the dead claimant's late completion
        is discarded — nothing lost, nothing duplicated."""
        served_dir = tmp_path / "served"
        svc = ProofService(cache_dir=served_dir, port=0).start()
        port = svc.port

        client = RemoteWorkQueue(svc.address)
        specs = _design_specs("updown_counter")
        client.enqueue(specs)
        stale = client.claim("doomed", lease_seconds=0.3)
        assert stale is not None

        svc.close()     # the server dies mid-campaign
        with pytest.raises(RemoteBackendError):
            client.counts()

        time.sleep(0.35)    # the outage outlasts the lease
        revived = ProofService(cache_dir=served_dir, port=port).start()
        try:
            # Queue state survived the restart; the stale lease is
            # reclaimed on the first reap.
            assert _reap(client) == \
                [(stale.spec.job_id, "doomed")]
            fabric_timing(poll=0.02)
            survivor = Worker(revived.address, worker_id="survivor",
                              lease_seconds=10)
            assert survivor.run() == len(specs)
            # The presumed-dead claimant reports late: discarded.
            assert client.report(_result(stale.spec,
                                         worker_id="doomed"),
                                 "doomed", lease_seconds=30) == \
                (False, None)
            results = client.results()
            assert sorted(results) == sorted(s.job_id for s in specs)
            assert client.counts() == {JOB_DONE: len(specs)}
            assert results[stale.spec.job_id].outcome.worker == \
                "survivor"
        finally:
            revived.close()


class TestCoordinatorSurvivesServerBounce:
    def test_campaign_rides_through_server_outage(self, tmp_path,
                                                  fabric_timing):
        """The coordinator must poll through a backend outage, not
        crash: with the server down, the campaign pauses (every queue
        call retries); once it is back on the same cache dir and port,
        the campaign finishes with every verdict.  The outage spans
        the campaign's start, so the retry path is exercised
        deterministically, not by racing the (fast) solver."""
        from repro.campaign import CampaignScheduler, ProofStore
        from repro.designs.registry import select_designs
        from repro.dist import Coordinator

        served = tmp_path / "served"
        svc = ProofService(cache_dir=served, port=0).start()
        port = svc.port
        url = svc.address
        pool = CampaignScheduler(
            select_designs(["updown_counter", "sync_counters_bug"]),
            ProofStore.in_memory(), max_k=3).build_jobs()
        svc.close()     # the backend is already down when the run starts

        fabric_timing(poll=0.05)
        coordinator = Coordinator(url, workers=1, lease_seconds=5.0)
        box = {}

        def run() -> None:
            try:
                box["result"] = coordinator.dispatch(pool)
            except BaseException as exc:   # surfaced by the assert below
                box["error"] = exc

        thread = threading.Thread(target=run)
        thread.start()
        time.sleep(0.5)     # a real outage window
        assert thread.is_alive(), \
            f"campaign ended during the outage: {box}"
        assert "error" not in box, box.get("error")

        revived = ProofService(cache_dir=served, port=port).start()
        try:
            thread.join(timeout=120)
            assert not thread.is_alive(), "campaign never finished"
            assert "error" not in box, box.get("error")
            result = box["result"]
            assert set(result.rows) == {j.identity for j in pool}
            assert all(row.status in ("proven", "violated")
                       for row in result.rows.values()), result.rows
        finally:
            revived.close()

    def test_second_campaign_refuses_to_clobber_a_live_one(
            self, service, fabric_timing):
        """A campaign resets the queue on start, so a backend with
        jobs under live lease (another coordinator's workers are
        solving) must be refused, not wiped."""
        from repro.campaign import CampaignScheduler, ProofStore
        from repro.designs.registry import select_designs
        from repro.dist import CampaignConflictError, Coordinator

        other = RemoteWorkQueue(service.address)
        other.enqueue([_spec("a")])
        other.claim("other-campaigns-worker", lease_seconds=60)

        pool = CampaignScheduler(
            select_designs(["updown_counter"]),
            ProofStore.in_memory(), max_k=3).build_jobs()
        fabric_timing(poll=0.02)
        coordinator = Coordinator(service.address, workers=1)
        with pytest.raises(CampaignConflictError, match="active"):
            coordinator.dispatch(pool)
        # The live campaign's job is untouched.
        assert other.counts() == {"leased": 1}

    def test_campaign_ownership_is_atomic_and_idempotent(self, service):
        """begin_campaign closes the startup window too: B cannot
        slip in while A's jobs are still pending (nobody has claimed
        yet), and A's own retried begin (lost response) stays safe."""
        queue = RemoteWorkQueue(service.address)
        assert queue.begin_campaign("campaign-A", 60) is True
        queue.enqueue([_spec("a")])
        assert queue.begin_campaign("campaign-B", 60) is False
        assert queue.counts() == {JOB_PENDING: 1}   # A untouched
        assert queue.begin_campaign("campaign-A", 60) is True
        queue.end_campaign("campaign-A")            # A releases...
        assert queue.begin_campaign("campaign-B", 60) is True

    def test_permanent_sqlite_errors_are_not_transient(self):
        import sqlite3

        from repro.dist import is_transient_error
        assert is_transient_error(
            sqlite3.OperationalError("database is locked"))
        assert is_transient_error(ConnectionRefusedError("refused"))
        assert is_transient_error(RemoteBackendError("unreachable"))
        assert not is_transient_error(
            sqlite3.OperationalError("database or disk is full"))
        assert not is_transient_error(
            sqlite3.DatabaseError("file is not a database"))

    def test_never_reachable_backend_fails_fast(self, monkeypatch,
                                                fabric_timing):
        """Ride-through patience is for outages, not typos: a backend
        that has never answered at all fails the campaign with a clear
        error instead of hanging forever."""
        from repro.campaign import CampaignScheduler, ProofStore
        from repro.designs.registry import select_designs
        from repro.dist import Coordinator

        pool = CampaignScheduler(
            select_designs(["updown_counter"]),
            ProofStore.in_memory(), max_k=3).build_jobs()
        monkeypatch.setattr(Coordinator, "NEVER_ANSWERED_GRACE", 0.2)
        fabric_timing(poll=0.02, timeout=0.3)
        coordinator = Coordinator(DEAD_URL, workers=1)
        with pytest.raises(TimeoutError, match="never answered"):
            coordinator.dispatch(pool)


def _requests_by_endpoint(service) -> dict[str, int]:
    """Wire requests the service has answered so far, per endpoint,
    from its own ``/metrics`` (this read is counted by the next one)."""
    with urllib.request.urlopen(f"{service.address}/metrics",
                                timeout=5) as response:
        text = response.read().decode()
    asked: dict[str, int] = {}
    for line in text.splitlines():
        if line.startswith("repro_http_requests_total{"):
            labels, _, value = line.rpartition(" ")
            endpoint = labels.split('endpoint="', 1)[1].split('"', 1)[0]
            asked[endpoint] = asked.get(endpoint, 0) + int(float(value))
    return asked


def _wire_requests(service) -> int:
    """All wire requests the service has answered so far."""
    return sum(_requests_by_endpoint(service).values())


class TestOneRequestPerJob:
    """After its first claim a worker makes one request per job: the
    report lands the job's proofs, records its verdict and claims the
    next job; no worker opens the store."""

    def test_cold_campaign_reports_each_job_once(self, service,
                                                 coordinators):
        report = run_campaign(
            designs=["updown_counter", "sync_counters_bug"], max_k=3,
            backend=service.address, workers=1, lease_seconds=10)
        jobs = len(report.rows)
        assert report.mismatches == 0 and jobs > 2
        assert all(row.worker == "w1" for row in report.rows)
        asked = _requests_by_endpoint(service)
        assert asked.get("queue.report", 0) == jobs
        assert asked.get("store.store", 0) == 0
        assert asked.get("queue.claim", 0) <= 1 + 1
        # The proofs are in the served store all the same.
        assert report.store_results > 0
        assert len(ProofStore.open(service.cache_dir)) == \
            report.store_results


class TestCoordinatorOffTheWire:
    """A coordinator's tick is one ``supervise`` request, a worker's
    first claim registers it, and the enqueue closes the queue: a
    campaign with T ticks makes 5 + T queue requests, and each worker
    one claim and one state read besides its reports."""

    REMOVED = ("register_worker", "requeue_expired", "renew_campaign",
               "set_state")

    def test_cold_campaign_request_census(self, service, coordinators):
        report = run_campaign(
            designs=["updown_counter", "sync_counters_bug"], max_k=3,
            backend=service.address, workers=2, lease_seconds=10)
        assert report.mismatches == 0
        asked = _requests_by_endpoint(service)
        assert [asked.get(f"queue.{name}", 0) for name in self.REMOVED] \
            == [0] * len(self.REMOVED)
        assert asked.get("invalid", 0) == 0
        assert asked.get("queue.enqueue", 0) == 1
        assert asked.get("queue.end_campaign", 0) == 1
        assert asked.get("queue.supervise", 0) >= 1
        [coordinator] = coordinators
        assert coordinator._spawned == 2
        assert asked.get("queue.claim", 0) + asked.get("queue.state", 0) \
            <= 2 * coordinator._spawned
        # begin, enqueue, results, worker stats, end: the ticks are
        # the coordinator's only other queue requests.
        assert sum(asked.get(f"queue.{name}", 0) for name in (
            "begin_campaign", "enqueue", "results", "worker_stats",
            "end_campaign")) == 5
        assert asked.get("queue.counts", 0) == 0
        # Both workers registered through their claims.
        assert {stat.worker_id for stat in report.worker_stats} == \
            {"w1", "w2"}


class TestRemoteProbe:
    """Probe-before-enqueue over the wire: a warm rerun against a
    service costs O(1) requests and starts no worker."""

    DESIGNS = ["updown_counter", "sync_counters_bug"]

    def _run(self, service, designs=None):
        return run_campaign(designs=designs or self.DESIGNS, max_k=3,
                            backend=service.address, workers=2,
                            lease_seconds=10)

    def test_warm_remote_rerun_asks_once_and_spawns_nothing(
            self, service, coordinators):
        cold = self._run(service)
        before = _wire_requests(service)
        warm = self._run(service)
        asked = _wire_requests(service) - before - 1   # less that read
        # One ledger read, one probe, one record, one size — not
        # a handful of round trips per job, as the cold half made.
        assert 0 < asked <= 15, asked
        assert before > 4 * asked
        first, second = coordinators
        assert first._spawned == 2
        assert second._spawned == 0 and not second._owns_queue
        assert {(r.design, r.property_name, r.status)
                for r in warm.rows} == \
            {(r.design, r.property_name, r.status) for r in cold.rows}
        assert warm.cache.misses == 0 and warm.cache.disk_hits > 0
        assert warm.worker_stats == [] and warm.workers == 2
        assert all(r.from_cache and r.worker == "" and
                   r.provenance == "store" for r in warm.rows)
        # The warm pass rewrote each verdict's one ledger row.
        served = RemoteProofStore(service.address)
        assert len(served.expected_walls()) == len(warm.rows)
        assert all(served.ledger_entry(r.design, r.property_name)
                   ["provenance"] == "store" for r in warm.rows)

    def test_half_warm_served_store_enqueues_only_the_other_design(
            self, service, coordinators):
        self._run(service, designs=["updown_counter"])
        report = self._run(service)
        ran = [r for r in report.rows if r.worker]
        assert {r.design for r in ran} == {"sync_counters_bug"}
        assert all(r.from_cache and r.provenance == "store"
                   for r in report.rows if not r.worker)
        assert sum(s.jobs_done for s in report.worker_stats) == len(ran)
        assert sorted(RemoteWorkQueue(service.address).results()) == \
            sorted(f"{r.design}::{r.property_name}" for r in ran)
        assert coordinators[-1]._spawned == min(2, len(ran))

    def test_store_unreachable_at_probe_time_enqueues_everything(
            self, service, coordinators, monkeypatch):
        """The probe degrades like any store read: a failed batched
        load reads as nothing found, and the campaign runs cold through
        the queue instead of failing."""
        self._run(service, designs=["updown_counter"])     # warm store
        monkeypatch.setattr(RemoteProofStore, "load_many",
                            lambda self, keys: {})
        report = self._run(service, designs=["updown_counter"])
        assert report.mismatches == 0
        assert all(r.worker for r in report.rows)
        assert sum(s.jobs_done for s in report.worker_stats) == \
            len(report.rows)


class TestRemoteCampaign:
    DESIGNS = ["updown_counter", "sync_counters_bug"]

    def test_remote_verdicts_match_local_sqlite_run(self, service,
                                                    tmp_path):
        local = run_campaign(designs=self.DESIGNS,
                             cache_dir=tmp_path / "local", max_k=3)
        remote = run_campaign(designs=self.DESIGNS,
                              backend=service.address, workers=2,
                              lease_seconds=10, max_k=3)
        verdicts = lambda report: {  # noqa: E731
            (r.design, r.property_name, r.status) for r in report.rows}
        assert verdicts(remote) == verdicts(local)
        assert remote.mismatches == 0
        assert remote.workers == 2
        assert remote.store_results > 0
        assert sum(s.jobs_done for s in remote.worker_stats) == \
            len(remote.rows)
        # The ledger holds one row per verdict, in the served store.
        assert len(RemoteProofStore(service.address).expected_walls()) \
            == len(remote.rows)

    def test_warm_remote_rerun_answers_from_served_store(self, service):
        cold = run_campaign(designs=["updown_counter"], max_k=3,
                            backend=service.address, workers=2,
                            lease_seconds=10)
        warm = run_campaign(designs=["updown_counter"], max_k=3,
                            backend=service.address, workers=2,
                            lease_seconds=10)
        assert cold.mismatches == warm.mismatches == 0
        assert warm.cache.disk_hits > 0
        assert warm.cache.misses == 0

    def test_sqlite_backend_spec_is_equivalent_to_cache_dir(self,
                                                            tmp_path):
        report = run_campaign(designs=["updown_counter"], max_k=3,
                              backend=f"sqlite:{tmp_path}")
        assert report.mismatches == 0
        assert (Path(tmp_path) / ProofStore.FILENAME).exists()
