"""Distributed campaign subsystem: queue, protocol, workers, recovery."""

import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import textwrap
import time
from dataclasses import replace
from multiprocessing import Process
from pathlib import Path

import pytest

from repro.campaign import CampaignRow, ProofStore
from repro.designs import get_design
from repro.dist import (JOB_DONE, JOB_PENDING, STATE_CLOSED, STATE_OPEN,
                        JobResult, JobSpec, Lease, WorkQueue, Worker)
from repro.flow.session import run_campaign
from repro.mc.result import CheckResult, ProofStats, Status


def _spec(job_id: str = "d1::p1", design: str = "d1", prop: str = "p1",
          priority: float = 0.0) -> JobSpec:
    return JobSpec(job_id=job_id, design=design, property_name=prop,
                   specs=("k_induction", "bmc"), priority=priority)


def _result(spec: JobSpec, status: str = "proven",
            worker_id: str = "w1") -> JobResult:
    return JobResult(
        job_id=spec.job_id,
        outcome=CampaignRow(
            design=spec.design, property_name=spec.property_name,
            status=status, strategy="k_induction", wall_seconds=0.5,
            k=2, from_cache=False, worker=worker_id),
        busy_seconds=0.5)


def _reap(queue) -> list[tuple[str, str]]:
    """The expired leases one supervision tick reclaims."""
    return queue.supervise("coordinator", 30)[1]


def _design_specs(design_name: str, max_k: int = 3) -> list[JobSpec]:
    """Real, runnable job specs for every property of one design."""
    design = get_design(design_name)
    race = (f"k_induction(max_k={max_k})", "bmc")
    return [JobSpec(job_id=f"{design_name}::{spec.name}",
                    design=design_name, property_name=spec.name,
                    specs=race, priority=float(-i))
            for i, spec in enumerate(design.properties)]


class TestProtocol:
    def test_records_pickle_round_trip(self):
        spec = _spec()
        lease = Lease(spec=spec, attempt=2)
        result = _result(spec)
        for record in (spec, lease, result):
            clone = pickle.loads(pickle.dumps(record))
            assert clone == record


class TestWorkQueue:
    def test_claim_is_priority_ordered_and_exclusive(self, tmp_path):
        queue = WorkQueue.open(tmp_path)
        queue.enqueue([_spec("a", priority=1.0),
                       _spec("b", priority=5.0),
                       _spec("c", priority=3.0)])
        first = queue.claim("w1", lease_seconds=30)
        second = queue.claim("w2", lease_seconds=30)
        assert first.spec.job_id == "b"          # highest priority first
        assert second.spec.job_id == "c"
        assert first.attempt == 1
        third = queue.claim("w3", lease_seconds=30)
        assert third.spec.job_id == "a"
        assert queue.claim("w4", lease_seconds=30) is None

    def test_report_records_result_and_worker_stats(self, tmp_path):
        queue = WorkQueue.open(tmp_path)
        queue.enqueue([_spec("a")])
        lease = queue.claim("w1", lease_seconds=30)
        assert queue.report(_result(lease.spec), "w1",
                            lease_seconds=30) == (True, None)
        assert queue.counts() == {JOB_DONE: 1}
        assert queue.unfinished() == 0
        results = queue.results()
        assert results["a"].outcome.status == "proven"
        (stat,) = queue.worker_stats()
        assert stat.worker_id == "w1"
        assert stat.jobs_done == 1
        assert stat.busy_seconds == pytest.approx(0.5)

    def test_report_claims_the_workers_next_job(self, tmp_path):
        queue = WorkQueue.open(tmp_path)
        queue.enqueue([_spec("a", priority=2.0), _spec("b", priority=1.0)])
        lease = queue.claim("w1", lease_seconds=30)
        accepted, following = queue.report(_result(lease.spec), "w1",
                                           lease_seconds=30)
        assert accepted and following.spec.job_id == "b"
        assert following.attempt == 1
        assert [(w["worker_id"], w["current_job"])
                for w in queue.worker_snapshot()] == [("w1", "b")]
        assert queue.counts() == {JOB_DONE: 1, "leased": 1}
        assert queue.report(_result(following.spec), "w1",
                            lease_seconds=30) == (True, None)

    def test_claim_hands_back_what_the_store_holds_for_the_keys(
            self, tmp_path):
        proof = CheckResult("p1", Status.PROVEN, k=2,
                            stats=ProofStats(wall_seconds=0.5))
        ProofStore.open(tmp_path).store("k-stored", proof)
        queue = WorkQueue.open(tmp_path)
        queue.enqueue([replace(_spec("a"), keys=("k-stored", "k-absent")),
                       _spec("b", priority=-1.0)])
        assert queue.claim("w1", lease_seconds=30).known == \
            {"k-stored": proof}
        assert queue.claim("w2", lease_seconds=30).known == {}

    def test_reported_results_land_in_the_store_not_the_queue(
            self, tmp_path):
        proof = CheckResult("p1", Status.PROVEN, k=2,
                            stats=ProofStats(wall_seconds=0.5))
        queue = WorkQueue.open(tmp_path)
        queue.enqueue([_spec("a")])
        lease = queue.claim("w1", lease_seconds=30)
        solved = replace(_result(lease.spec), solved={"k-a": proof})
        assert queue.report(solved, "w1", lease_seconds=30) == \
            (True, None)
        assert ProofStore.open(tmp_path).load("k-a") == proof
        assert queue.results()["a"].solved == {}

    def test_discarded_report_still_stores_its_results(self, tmp_path):
        """A late report loses its verdict, not its proofs: they are in
        the store before the guard discards the row, so the requeued
        attempt's claim hands them back."""
        proof = CheckResult("p1", Status.PROVEN, k=2,
                            stats=ProofStats(wall_seconds=0.5))
        queue = WorkQueue.open(tmp_path)
        queue.enqueue([replace(_spec("a"), keys=("k-a",))])
        stale = queue.claim("w1", lease_seconds=0.01)
        assert stale.known == {}
        time.sleep(0.02)
        assert _reap(queue) == [("a", "w1")]
        fresh = queue.claim("w2", lease_seconds=30)
        late = replace(_result(stale.spec), solved={"k-a": proof})
        assert queue.report(late, "w1", lease_seconds=30) == \
            (False, None)
        assert ProofStore.open(tmp_path).load("k-a") == proof
        assert queue.counts() == {"leased": 1}
        assert queue.report(_result(fresh.spec, worker_id="w2"), "w2",
                            lease_seconds=30) == (True, None)
        assert queue.results()["a"].outcome.worker == "w2"
        # A third attempt would be answered from the store.
        queue.enqueue([replace(_spec("again"), keys=("k-a",))])
        assert queue.claim("w3", lease_seconds=30).known == {"k-a": proof}

    def test_concurrent_reports_lose_no_verdict_and_no_proof(
            self, tmp_path):
        """A service's handler threads share one queue and one store:
        more workers than cores claiming and reporting at once must
        record every verdict once and store every proof."""
        import sys
        import threading
        proof = CheckResult("p1", Status.PROVEN, k=1,
                            stats=ProofStats(wall_seconds=0.01))
        store = ProofStore.open(tmp_path)
        queue = WorkQueue.open(tmp_path, store=store)
        jobs = 40
        queue.enqueue([_spec(f"j{i}", priority=float(i))
                       for i in range(jobs)])
        errors: list[Exception] = []

        def work(worker_id: str) -> None:
            try:
                lease = queue.claim(worker_id, lease_seconds=30)
                while lease is not None:
                    result = replace(
                        _result(lease.spec, worker_id=worker_id),
                        solved={f"k-{lease.spec.job_id}": proof})
                    accepted, lease = queue.report(result, worker_id,
                                                   lease_seconds=30)
                    if not accepted:
                        raise AssertionError("a live lease was refused")
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(f"w{n}",))
                       for n in range(2 * (os.cpu_count() or 1) + 2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert queue.counts() == {JOB_DONE: jobs}
        assert sum(stat.jobs_done for stat in queue.worker_stats()) == jobs
        assert len(store) == jobs

    def test_enqueue_is_idempotent_for_inflight_jobs(self, tmp_path):
        queue = WorkQueue.open(tmp_path)
        assert queue.enqueue([_spec("a")]) == 1
        lease = queue.claim("w1", lease_seconds=30)
        # A retried enqueue (e.g. the response was lost over the
        # network backend after the commit landed) must not clobber
        # the live lease or its attempts count.
        assert queue.enqueue([_spec("a")]) == 0
        assert queue.counts() == {"leased": 1}
        assert queue.report(_result(lease.spec), "w1",
                            lease_seconds=30) == (True, None)

    def test_expired_lease_is_requeued(self, tmp_path):
        queue = WorkQueue.open(tmp_path)
        queue.enqueue([_spec("a")])
        queue.claim("w1", lease_seconds=0.01)
        time.sleep(0.02)
        assert _reap(queue) == [("a", "w1")]
        assert queue.counts() == {JOB_PENDING: 1}
        # The requeued job is claimable again, as a second attempt.
        lease = queue.claim("w2", lease_seconds=30)
        assert lease.spec.job_id == "a"
        assert lease.attempt == 2

    def test_heartbeat_extends_the_lease(self, tmp_path):
        queue = WorkQueue.open(tmp_path)
        queue.enqueue([_spec("a")])
        queue.claim("w1", lease_seconds=0.05)
        queue.heartbeat("w1", "a", lease_seconds=60)
        time.sleep(0.06)   # past the original deadline, inside the new
        assert _reap(queue) == []
        assert queue.counts() == {"leased": 1}

    def test_late_report_from_presumed_dead_worker_is_discarded(
            self, tmp_path):
        queue = WorkQueue.open(tmp_path)
        queue.enqueue([_spec("a")])
        stale = queue.claim("w1", lease_seconds=0.01)
        time.sleep(0.02)
        _reap(queue)
        fresh = queue.claim("w2", lease_seconds=30)
        assert queue.report(_result(fresh.spec, worker_id="w2"), "w2",
                            lease_seconds=30) == (True, None)
        # w1 wakes up and reports late: discarded, not duplicated.
        assert queue.report(_result(stale.spec, worker_id="w1"), "w1",
                            lease_seconds=30) == (False, None)
        assert queue.counts() == {JOB_DONE: 1}
        assert queue.results()["a"].outcome.worker == "w2"
        stats = {s.worker_id: s.jobs_done for s in queue.worker_stats()}
        assert stats == {"w1": 0, "w2": 1}

    def test_fail_requeues_then_poisons_after_max_attempts(self, tmp_path):
        queue = WorkQueue.open(tmp_path)
        queue.enqueue([_spec("a")], max_attempts=2)
        queue.claim("w1", lease_seconds=30)
        queue.fail("a", "w1", "boom")
        assert queue.counts() == {JOB_PENDING: 1}
        queue.claim("w1", lease_seconds=30)
        queue.fail("a", "w1", "boom again")
        assert queue.counts() == {JOB_DONE: 1}
        poisoned = queue.results()["a"]
        assert poisoned.outcome.status == "unknown"
        assert poisoned.error == "boom again"

    def test_poisoned_job_reaches_the_report_with_its_design(
            self, tmp_path):
        """A job poisoned in the queue is an UNKNOWN row, and the
        campaign fills in its design's family and expectation."""
        from repro.campaign import CampaignScheduler, DispatchResult
        from repro.dist.coordinator import spec_from_job

        queue = WorkQueue.open(tmp_path / "queue")

        class Poisoning:
            def dispatch(self, pool):
                queue.enqueue([spec_from_job(job) for job in pool],
                              max_attempts=1)
                while (lease := queue.claim("w1", 30)) is not None:
                    queue.fail(lease.spec.job_id, "w1", "boom")
                return DispatchResult(rows={
                    (r.outcome.design, r.outcome.property_name): r.outcome
                    for r in queue.results().values()})

        design = get_design("sync_counters_bug")
        store = ProofStore.open(tmp_path / "store")
        report = CampaignScheduler([design], store, max_k=3,
                                   dispatcher=Poisoning()).run()
        assert [(r.property_name, r.status, r.family, r.expect)
                for r in report.rows] == [
            (spec.name, "unknown", design.family, spec.expect)
            for spec in design.properties]
        entry = store.ledger_entry(design.name, design.properties[0].name)
        assert (entry["status"], entry["family"]) == \
            ("unknown", design.family)

    def test_exhausted_expired_lease_is_poisoned_not_looped(self, tmp_path):
        queue = WorkQueue.open(tmp_path)
        queue.enqueue([_spec("a")], max_attempts=1)
        queue.claim("w1", lease_seconds=0.01)
        time.sleep(0.02)
        assert _reap(queue) == [("a", "w1")]
        assert queue.counts() == {JOB_DONE: 1}
        assert queue.results()["a"].outcome.status == "unknown"

    def test_worker_stats_survive_coordinator_reset(self, tmp_path):
        # A standalone worker registers (its first claim finds
        # nothing), then a coordinator starts a campaign
        # (begin_campaign wipes the tables): the worker's completions
        # must re-create its stats row, not vanish from the accounting.
        queue = WorkQueue.open(tmp_path)
        assert queue.claim("standalone", lease_seconds=30) is None
        assert queue.begin_campaign("c1", lease_seconds=30) is True
        queue.enqueue([_spec("a")])
        lease = queue.claim("standalone", lease_seconds=30)
        assert queue.report(_result(lease.spec,
                                    worker_id="standalone"),
                            "standalone", lease_seconds=30) == \
            (True, None)
        (stat,) = queue.worker_stats()
        assert stat.worker_id == "standalone"
        assert stat.jobs_done == 1

    def test_claim_on_a_closed_empty_queue_registers_its_worker(
            self, tmp_path):
        queue = WorkQueue.open(tmp_path)
        assert queue.begin_campaign("c1", lease_seconds=30) is True
        queue.end_campaign("c1")
        assert queue.state() == STATE_CLOSED and queue.counts() == {}
        assert queue.claim("idle", lease_seconds=30) is None
        (stat,) = queue.worker_stats()
        assert (stat.worker_id, stat.jobs_done, stat.busy_seconds) == \
            ("idle", 0, 0.0)

    def test_state_and_begin_campaign(self, tmp_path):
        queue = WorkQueue.open(tmp_path)
        assert queue.state() == STATE_OPEN       # the default
        queue.enqueue([_spec("a")])              # the pool is final
        assert queue.state() == STATE_CLOSED
        # A campaign starts from a wiped, open queue.
        assert queue.begin_campaign("c1", lease_seconds=30) is True
        assert queue.counts() == {}
        assert queue.state() == STATE_OPEN


class TestWorker:
    def test_worker_drains_queue_into_shared_store(self, tmp_path,
                                                   fabric_timing):
        fabric_timing(poll=0.02)
        queue = WorkQueue.open(tmp_path)
        queue.enqueue(_design_specs("updown_counter"))
        worker = Worker(tmp_path, worker_id="w1", lease_seconds=10)
        assert worker.run() == 2
        queue_after = WorkQueue.open(tmp_path)
        results = queue_after.results()
        assert {r.outcome.status for r in results.values()} == {"proven"}
        assert all(r.outcome.worker == "w1"
                   for r in results.values())
        # Verdicts landed in the shared proof store under content keys.
        store = ProofStore.open(tmp_path)
        assert len(store) > 0

    def test_worker_leaves_a_closed_empty_queue_at_once(self, tmp_path,
                                                        fabric_timing):
        fabric_timing(poll=5.0)
        queue = WorkQueue.open(tmp_path)
        assert queue.begin_campaign("c1", lease_seconds=30) is True
        queue.end_campaign("c1")        # closes the queue it releases
        started = time.monotonic()
        assert Worker(tmp_path, worker_id="w1").run() == 0
        # An idle poll would cost a full 5 s.
        assert time.monotonic() - started < 5.0

    def test_second_identical_job_answers_from_shared_store(
            self, tmp_path, fabric_timing):
        fabric_timing(poll=0.02)
        design = "updown_counter"
        prop = get_design(design).properties[0].name
        race = ("k_induction(max_k=3)", "bmc")
        queue = WorkQueue.open(tmp_path)
        queue.enqueue([
            JobSpec(job_id="cold", design=design, property_name=prop,
                    specs=race, priority=1.0),
            JobSpec(job_id="warm", design=design, property_name=prop,
                    specs=race, priority=0.0),
        ])
        Worker(tmp_path, worker_id="w1", lease_seconds=10).run()
        results = WorkQueue.open(tmp_path).results()
        assert results["cold"].outcome.from_cache is False
        assert results["warm"].outcome.from_cache is True

    def test_unrunnable_job_is_poisoned_and_worker_survives(
            self, tmp_path, fabric_timing):
        fabric_timing(poll=0.02)
        queue = WorkQueue.open(tmp_path)
        queue.enqueue([
            JobSpec(job_id="bad", design="updown_counter",
                    property_name="no_such_property",
                    specs=("bmc",), priority=1.0),
        ] + _design_specs("updown_counter"), max_attempts=2)
        done = Worker(tmp_path, worker_id="w1", lease_seconds=10).run()
        assert done == 2                 # the two real jobs completed
        results = WorkQueue.open(tmp_path).results()
        assert len(results) == 3
        assert results["bad"].outcome.status == "unknown"
        assert "no_such_property" in results["bad"].error


def _claim_and_hang(cache_dir: Path, lease_seconds: float):
    """Spawn a real process that claims a lease and then never finishes
    (the crash-recovery tests SIGKILL it mid-lease)."""
    script = textwrap.dedent("""
        import sys, time
        from repro.dist import WorkQueue
        queue = WorkQueue.open(sys.argv[1])
        lease = queue.claim("doomed", float(sys.argv[2]))
        assert lease is not None, "nothing to claim"
        print(lease.spec.job_id, flush=True)
        time.sleep(600)
    """)
    import repro
    env = os.environ.copy()
    env["PYTHONPATH"] = \
        str(Path(repro.__file__).resolve().parent.parent) + \
        os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-c", script, str(cache_dir),
         str(lease_seconds)],
        stdout=subprocess.PIPE, env=env, text=True)
    claimed_job = proc.stdout.readline().strip()
    return proc, claimed_job


class TestCrashRecovery:
    def test_killed_worker_job_is_requeued_and_completed_once(
            self, tmp_path, fabric_timing):
        fabric_timing(poll=0.02)
        queue = WorkQueue.open(tmp_path)
        specs = _design_specs("updown_counter")
        queue.enqueue(specs)

        # A real worker process claims the best job, then dies mid-lease
        # without completing or heartbeating.
        proc, claimed_job = _claim_and_hang(tmp_path, lease_seconds=0.3)
        assert claimed_job == specs[0].job_id
        proc.kill()
        proc.wait()

        # Until the lease expires the job is protected ...
        assert _reap(queue) == []
        time.sleep(0.35)
        # ... then the coordinator's reaper hands it back to the pool.
        assert _reap(queue) == [(claimed_job, "doomed")]

        # A surviving worker completes everything: every job has exactly
        # one verdict, none lost to the crash, none duplicated.
        survivor = Worker(tmp_path, worker_id="survivor",
                          lease_seconds=10)
        assert survivor.run() == len(specs)
        results = WorkQueue.open(tmp_path).results()
        assert sorted(results) == sorted(s.job_id for s in specs)
        assert queue.counts() == {JOB_DONE: len(specs)}
        assert results[claimed_job].outcome.worker == "survivor"
        assert all(r.outcome.status == "proven"
                   for r in results.values())


    @pytest.mark.parametrize("landed", [False, True],
                             ids=["re-proved", "from-the-store"])
    def test_job_whose_report_never_landed_keeps_its_verdict(
            self, tmp_path, fabric_timing, monkeypatch, landed):
        """w1 solves its job, but the report never comes back: not
        recorded at all, or (the response was lost) with its results
        stored.  The lease expires, the job is requeued, and the next
        attempt reaches the same verdict — re-proved, or answered from
        the store."""
        fabric_timing(poll=0.02)
        reference = run_campaign(designs=["updown_counter"],
                                 cache_dir=tmp_path / "reference",
                                 max_k=3)
        verdicts = {r.property_name: r.status for r in reference.rows}
        spec = _keyed_specs(tmp_path / "fabric")[0]
        queue = WorkQueue.open(tmp_path / "fabric")
        queue.enqueue([spec])

        doomed = Worker(tmp_path / "fabric", worker_id="w1",
                        lease_seconds=0.3)
        proofs = doomed.queue._proofs()

        def lost_report(result, worker_id, lease_seconds):
            if landed:
                proofs.store_many(result.solved)
            raise ConnectionResetError("the report's answer was lost")

        monkeypatch.setattr(doomed.queue, "report", lost_report)
        assert doomed.run() == 0
        time.sleep(0.4)                 # the unbeaten lease runs out
        assert _reap(queue) == [(spec.job_id, "w1")]

        survivor = Worker(tmp_path / "fabric", worker_id="survivor",
                          lease_seconds=10)
        assert survivor.run() == 1
        row = queue.results()[spec.job_id].outcome
        assert row.status == verdicts[spec.property_name]
        assert row.worker == "survivor"
        assert row.from_cache is landed


def _keyed_specs(cache_dir: Path) -> list[JobSpec]:
    """The updown_counter campaign's job specs, keyed as a coordinator
    stamps them."""
    from repro.dist.coordinator import spec_from_job
    from repro.mc.cache import ResultCache
    from repro.mc.portfolio import PortfolioScheduler
    jobs = _campaign_jobs(cache_dir)
    probed = PortfolioScheduler(cache=ResultCache()).probe(
        [job.task for job in jobs])
    return [spec_from_job(job, keys) for job, (_, keys)
            in zip(jobs, probed)]


class TestDistributedCampaign:
    DESIGNS = ["updown_counter", "sync_counters_bug"]

    def test_distributed_verdicts_match_single_process(self, tmp_path):
        single = run_campaign(designs=self.DESIGNS,
                              cache_dir=tmp_path / "single", max_k=3)
        dist = run_campaign(designs=self.DESIGNS,
                            cache_dir=tmp_path / "dist", max_k=3,
                            workers=2, lease_seconds=10)
        verdicts = lambda report: {  # noqa: E731
            (r.design, r.property_name, r.status) for r in report.rows}
        assert verdicts(dist) == verdicts(single)
        assert dist.mismatches == 0
        assert dist.workers == 2
        assert dist.store_results > 0
        # Per-worker throughput is reported, and accounts every job.
        assert sum(s.jobs_done for s in dist.worker_stats) == \
            len(dist.rows)
        assert all(r.worker for r in dist.rows)

    def test_distributed_ledger_is_recorded_once_per_property(
            self, tmp_path):
        report = run_campaign(designs=self.DESIGNS, cache_dir=tmp_path,
                              max_k=3, workers=2, lease_seconds=10)
        store = ProofStore.open(tmp_path)
        # Only the coordinator writes the ledger — one row per verdict,
        # naming the worker that reached it.
        for row in report.rows:
            entry = store.ledger_entry(row.design, row.property_name)
            assert (entry["status"], entry["worker"], entry["family"]) \
                == (row.status, row.worker, row.family)
        assert len(store.expected_walls()) == len(report.rows)

    def test_distributed_campaign_without_cache_dir_uses_scratch(self):
        report = run_campaign(designs=["updown_counter"], max_k=3,
                              workers=2, lease_seconds=10)
        assert report.mismatches == 0
        assert report.workers == 2

    def test_warm_distributed_rerun_hits_the_shared_store(self, tmp_path):
        cold = run_campaign(designs=self.DESIGNS, cache_dir=tmp_path,
                            max_k=3, workers=2, lease_seconds=10)
        warm = run_campaign(designs=self.DESIGNS, cache_dir=tmp_path,
                            max_k=3, workers=2, lease_seconds=10)
        assert warm.cache.disk_hits > 0
        assert warm.cache.misses == 0
        verdicts = lambda report: {  # noqa: E731
            (r.design, r.property_name, r.status) for r in report.rows}
        assert verdicts(warm) == verdicts(cold)


def _campaign_jobs(cache_dir: Path):
    """The updown_counter campaign's job pool, as a dispatcher gets it."""
    from repro.campaign import CampaignScheduler
    from repro.designs import select_designs
    return CampaignScheduler(select_designs(["updown_counter"]),
                             ProofStore.open(cache_dir),
                             max_k=3).build_jobs()


@pytest.fixture
def spawned(monkeypatch) -> list:
    """Every worker process a ``Coordinator`` spawns while the test runs
    (the coordinator forgets them once it has shut them down)."""
    from repro.dist import Coordinator
    procs: list = []
    spawn = Coordinator._spawn_worker

    def recording_spawn(self):
        started = spawn(self)
        if started:
            procs.append(self._procs[f"w{self._spawned}"])
        return started

    monkeypatch.setattr(Coordinator, "_spawn_worker", recording_spawn)
    return procs


class TestCampaignEndsWithItsLastJob:
    """The pool is closed when it is enqueued, so workers leave as soon
    as nothing is claimable, and the coordinator wakes on their exit
    instead of on its next supervision tick."""

    def test_dispatch_returns_before_one_poll_interval(
            self, tmp_path, spawned, fabric_timing):
        from repro.dist import Coordinator
        fabric_timing(poll=5.0)
        jobs = _campaign_jobs(tmp_path)
        coordinator = Coordinator(tmp_path, workers=1, lease_seconds=10)
        started = time.monotonic()
        result = coordinator.dispatch(jobs)
        elapsed = time.monotonic() - started
        assert set(result.rows) == {job.identity for job in jobs}
        assert all(row.worker == "w1" for row in result.rows.values())
        [worker] = spawned
        assert worker.exitcode == 0        # left on its own, not killed
        # The supervision sleep would cost a full 5 s tick.
        assert elapsed < 5.0

    def test_forked_worker_is_built_from_backend_id_and_lease(
            self, tmp_path, monkeypatch):
        from repro.cli import build_parser
        from repro.dist import Coordinator
        built = tmp_path / "built.json"
        run = Worker.run

        def recording_run(self):
            # Patched before the fork, so the child runs it too.
            built.write_text(json.dumps([
                self.backend.spec(), self.worker_id, self.lease_seconds,
                self.idle_timeout, self.campaign_owner]))
            return run(self)

        monkeypatch.setattr(Worker, "run", recording_run)
        jobs = _campaign_jobs(tmp_path)
        Coordinator(tmp_path, workers=1, lease_seconds=10).dispatch(jobs)
        assert json.loads(built.read_text()) == \
            [f"sqlite:{tmp_path}", "w1", 10, 60.0, None]
        # ... and a standalone worker's parser takes the same three.
        args = build_parser().parse_args(
            ["worker", "--backend", f"sqlite:{tmp_path}", "--id", "w1",
             "--lease", "10"])
        assert (args.backend, args.id, args.lease) == \
            (f"sqlite:{tmp_path}", "w1", 10.0)

    def test_job_requeued_after_the_workers_left_goes_to_a_respawn(
            self, tmp_path, spawned, monkeypatch, fabric_timing):
        from repro.dist import Coordinator
        from repro.dist import coordinator as coordinator_module
        run_worker = coordinator_module._run_worker
        claimed = tmp_path / "w1-claimed"

        def claim_and_exit_as_w1(backend, worker_id, lease_seconds):
            if worker_id == "w1":
                # w1 holds the best job's lease and its process exits
                # without completing it.
                WorkQueue.open(tmp_path).claim("w1", lease_seconds)
                claimed.touch()
                return
            # Every other worker starts after that claim, so no real
            # worker can drain the job first.
            while not claimed.exists():
                time.sleep(0.01)
            run_worker(backend, worker_id, lease_seconds)

        # Patched before the fork, so every child runs it.
        monkeypatch.setattr(coordinator_module, "_run_worker",
                            claim_and_exit_as_w1)
        jobs = _campaign_jobs(tmp_path)
        # The coordinator requeues only on a tick, and it ticks when the
        # worker it waits on (w2 before any respawn) exits or after
        # one poll interval, so w2 has left before w1's job is pending
        # again.
        fabric_timing(poll=2.0)
        coordinator = Coordinator(tmp_path, workers=2, lease_seconds=0.5,
                                  wall_timeout=60)
        result = coordinator.dispatch(jobs)
        [lost] = [job for job, worker in coordinator.requeued
                  if worker == "w1"]
        assert set(result.rows) == {job.identity for job in jobs}
        assert sorted(WorkQueue.open(tmp_path).results()) == \
            sorted("::".join(job.identity) for job in jobs)
        assert sum(stat.jobs_done for stat in result.worker_stats) == \
            len(jobs)
        completer = result.rows[tuple(lost.split("::"))].worker
        assert completer not in ("w1", "w2")      # a respawned worker
        assert len(spawned) >= 3
        assert all(proc.exitcode is not None for proc in spawned)


class TestForkedWorkers:
    """A coordinator's local workers are forks of it: they start with
    its modules and its journal, and none outlives the campaign."""

    def test_no_worker_outlives_its_campaign(self, tmp_path, spawned):
        report = run_campaign(designs=["updown_counter",
                                       "sync_counters_bug"],
                              cache_dir=tmp_path, max_k=3, workers=2,
                              lease_seconds=10)
        assert report.mismatches == 0
        assert len(spawned) == 2
        assert multiprocessing.active_children() == []
        assert [proc.exitcode for proc in spawned] == [0, 0]

    def test_locks_another_thread_holds_do_not_wedge_the_child(
            self, tmp_path, spawned, monkeypatch):
        """Another thread holds the journal's lock as the coordinator
        forks: the fork waits for the journal record to finish, and the
        worker finishes its jobs."""
        import threading

        from repro.dist import Coordinator
        from repro.obs import journal
        sink = journal.configure(tmp_path / "events", trace_id="held")
        forking, locked, done = (threading.Event() for _ in range(3))
        spawn = Coordinator._spawn_worker

        def spawn_under_held_journal_lock(self):
            forking.set()
            locked.wait(30)
            return spawn(self)

        monkeypatch.setattr(Coordinator, "_spawn_worker",
                            spawn_under_held_journal_lock)

        def hold_lock():
            forking.wait(30)
            with sink._lock:     # mid-record as the fork starts
                locked.set()
                time.sleep(0.2)
            done.wait(60)

        holder = threading.Thread(target=hold_lock)
        holder.start()
        try:
            jobs = _campaign_jobs(tmp_path / "store")
            result = Coordinator(tmp_path / "store", workers=1,
                                 lease_seconds=10,
                                 wall_timeout=30).dispatch(jobs)
        finally:
            done.set()
            holder.join(30)
            journal.shutdown()
        assert not holder.is_alive()
        assert {row.worker for row in result.rows.values()} == {"w1"}
        [worker] = spawned
        assert worker.exitcode == 0
        [start] = [record for record in journal.load(tmp_path / "events")
                   if record["kind"] == "worker_start"]
        assert (start["worker"], start["trace_id"]) == ("w1", "held")
        assert start["pid"] == worker.pid != os.getpid()


def _verdicts(report):
    return {(r.design, r.property_name, r.status) for r in report.rows}


class TestCampaignRelease:
    def test_dispatch_failing_before_its_enqueue_closes_and_releases(
            self, tmp_path, monkeypatch, spawned):
        """A dispatch that took the queue but failed before enqueueing
        closes it and releases the campaign on the way out: no worker
        waits for a pool that never comes, and the next campaign — from
        another coordinator — begins at once instead of waiting out
        the campaign lease."""
        from repro.dist import Coordinator
        jobs = _campaign_jobs(tmp_path)
        enqueue = WorkQueue.enqueue

        def failing_enqueue(self, specs, *args, **kwargs):
            raise RuntimeError("the pool could not be written")

        monkeypatch.setattr(WorkQueue, "enqueue", failing_enqueue)
        first = Coordinator(tmp_path, workers=1, lease_seconds=10)
        with pytest.raises(RuntimeError, match="could not be written"):
            first.dispatch(jobs)
        assert first._owns_queue and spawned == []
        queue = WorkQueue.open(tmp_path)
        assert queue.state() == STATE_CLOSED
        assert queue.counts() == {}

        monkeypatch.setattr(WorkQueue, "enqueue", enqueue)
        second = Coordinator(tmp_path, workers=1, lease_seconds=10,
                             wall_timeout=60)
        second._campaign_id = "c-another-coordinator"
        result = second.dispatch(jobs)
        assert set(result.rows) == {job.identity for job in jobs}
        assert queue.state() == STATE_CLOSED


class TestProbeBeforeEnqueue:
    """The coordinator asks the store about the whole pool before it
    enqueues anything: what the store settles never reaches a worker,
    and a pool it settles entirely takes no queue and starts none."""

    DESIGNS = ["updown_counter", "sync_counters_bug"]
    BUG = ("sync_counters_bug", "counters_equal")
    #: A real two-slot race: k-induction's base case stops at cycle 2,
    #: so the stored first slot on the seeded bug is an UNKNOWN.
    TWO_SLOTS = ["k_induction(bound=2)", "bmc"]

    def test_warm_rerun_spawns_nothing(self, tmp_path, coordinators):
        def run():
            return run_campaign(designs=self.DESIGNS,
                                backend=f"sqlite:{tmp_path}", max_k=3,
                                workers=2, lease_seconds=10)

        cold, warm = run(), run()
        first, second = coordinators
        assert first._spawned == 2
        assert second._spawned == 0 and not second._owns_queue
        assert _verdicts(warm) == _verdicts(cold)
        assert warm.mismatches == 0 and warm.workers == 2
        assert warm.cache.misses == 0 and warm.cache.disk_hits > 0
        assert warm.worker_stats == []
        for row in warm.rows:
            assert row.from_cache and row.worker == ""
            assert row.provenance == "store"
            assert all(a["origin"] in ("disk", "memory", "skipped")
                       for a in row.attempts)
        # The warm pass rewrites each verdict's one ledger row.
        store = ProofStore.open(tmp_path)
        assert len(store.expected_walls()) == len(warm.rows)
        assert {store.ledger_entry(r.design, r.property_name)["provenance"]
                for r in warm.rows} == {"store"}

    def test_half_warm_store_enqueues_only_the_other_design(
            self, tmp_path, coordinators):
        run_campaign(designs=["updown_counter"], cache_dir=tmp_path,
                     max_k=3)                   # pre-verified, locally
        report = run_campaign(designs=self.DESIGNS, cache_dir=tmp_path,
                              max_k=3, workers=2, lease_seconds=10)
        assert report.mismatches == 0
        ran = [r for r in report.rows if r.worker]
        assert {r.design for r in ran} == {"sync_counters_bug"}
        assert len(ran) == len(get_design("sync_counters_bug").properties)
        assert all(r.from_cache and r.provenance == "store"
                   for r in report.rows if not r.worker)
        assert sum(s.jobs_done for s in report.worker_stats) == len(ran)
        assert sorted(WorkQueue.open(tmp_path).results()) == sorted(
            f"{r.design}::{r.property_name}" for r in ran)
        [coordinator] = coordinators
        assert coordinator._spawned == min(2, len(ran))
        assert report.cache.disk_hits > 0       # the probe's traffic...
        assert report.cache.misses >= len(ran)  # ...plus the workers'

    def test_empty_pool_spawns_no_worker_and_leaves_the_queue_alone(
            self, tmp_path):
        from repro.dist import Coordinator
        queue = WorkQueue.open(tmp_path)
        queue.enqueue([_spec("someone::elses")])
        # Reopened, so the last line below sees any close this
        # coordinator would make of a queue it does not own.
        queue.set_state(STATE_OPEN)
        coordinator = Coordinator(tmp_path, workers=2)
        result = coordinator.dispatch([])
        assert result.rows == {} and result.worker_stats == []
        assert coordinator._spawned == 0
        assert queue.counts() == {JOB_PENDING: 1}     # not reset
        assert queue.state() == STATE_OPEN            # not closed

    def test_job_spec_carries_the_campaign_race(self, tmp_path):
        from repro.campaign import CampaignScheduler
        from repro.designs import select_designs
        from repro.dist.coordinator import spec_from_job
        scheduler = CampaignScheduler(select_designs(["updown_counter"]),
                                      ProofStore.open(tmp_path), max_k=3)
        jobs = scheduler.build_jobs()
        assert jobs
        for job in jobs:
            spec = spec_from_job(job)
            assert spec.job_id == f"updown_counter::{job.prop.name}"
            assert spec.specs == job.task.strategies
            assert spec.priority == job.expected_wall

    def test_ledger_does_not_shape_the_distributed_race(
            self, tmp_path, coordinators):
        """A ledger claiming k-induction settles the seeded bug changes
        neither the enqueued job nor its verdict: one job, both slots
        raced, BMC's counterexample."""
        store = ProofStore.open(tmp_path)
        store.record(design=self.BUG[0], family="counters",
                     property_name=self.BUG[1], strategy="k_induction",
                     status="proven", wall_seconds=0.1, from_cache=False)
        store.close()
        report = run_campaign(designs=[self.BUG[0]], cache_dir=tmp_path,
                              max_k=3, strategies=self.TWO_SLOTS,
                              workers=1, lease_seconds=10)
        [row] = report.rows
        assert row.status == "violated" and row.worker
        assert [a["status"] for a in row.attempts] == ["unknown", "violated"]
        assert list(WorkQueue.open(tmp_path).results()) == \
            ["::".join(self.BUG)]
        [coordinator] = coordinators
        assert coordinator._spawned == 1

    def test_partly_stored_race_is_enqueued_whole(self, tmp_path,
                                                  coordinators):
        """The probe settles a race only when the store decides it: with
        just k-induction's UNKNOWN stored, the seeded bug's job is
        enqueued once, and its worker reads that slot from the store and
        solves only BMC."""
        run_campaign(designs=[self.BUG[0]], cache_dir=tmp_path, max_k=3,
                     strategies=self.TWO_SLOTS[:1])
        report = run_campaign(designs=[self.BUG[0]], cache_dir=tmp_path,
                              max_k=3, strategies=self.TWO_SLOTS,
                              workers=1, lease_seconds=10)
        [row] = report.rows
        assert row.status == "violated"
        assert row.worker and not row.from_cache
        assert [(a["origin"], a["status"]) for a in row.attempts] == \
            [("disk", "unknown"), ("solver", "violated")]
        assert list(WorkQueue.open(tmp_path).results()) == \
            ["::".join(self.BUG)]
        assert sum(s.jobs_done for s in report.worker_stats) == 1
        [coordinator] = coordinators
        assert coordinator._spawned == 1

    def test_uncacheable_strategies_are_never_settled_by_the_probe(
            self, tmp_path):
        from repro.campaign import compile_design
        from repro.mc.cache import ResultCache
        from repro.mc.portfolio import PortfolioScheduler, VerifyTask
        store = ProofStore.open(tmp_path)
        cache = ResultCache(backing=store)
        _spec_, prop, scoped = compile_design(
            get_design("updown_counter"))[0]
        tasks = [VerifyTask(scoped, prop, strategies=(spec,))
                 for spec in ("external", "bmc(bound=3)")]
        scheduler = PortfolioScheduler(cache=cache)
        for outcome in scheduler.stream(tasks):       # fills the store
            assert not outcome.from_cache
        assert len(store) == 1                        # bmc's answer only
        fresh = ResultCache(backing=store)
        settled = PortfolioScheduler(cache=fresh).probe(tasks)
        assert settled[0].outcome is None
        assert settled[1].outcome is not None
        assert settled[1].outcome.from_cache
        # Only a cacheable slot has a key for a job to carry.
        assert settled[0].keys == () and len(settled[1].keys) == 1
        # Only the answerable slot was ever asked for.
        assert (fresh.stats.hits, fresh.stats.misses) == (1, 0)

    def test_uncacheable_race_is_enqueued_on_every_rerun(self, tmp_path):
        def run():
            return run_campaign(designs=["updown_counter"],
                                cache_dir=tmp_path, max_k=3, workers=1,
                                strategies=["external", "bmc"],
                                lease_seconds=10)

        cold, warm = run(), run()
        assert _verdicts(warm) == _verdicts(cold)
        assert sum(s.jobs_done for s in warm.worker_stats) == \
            len(warm.rows)


def _hammer_store(cache_dir: str, worker: int, writes: int) -> None:
    store = ProofStore.open(cache_dir)
    for i in range(writes):
        result = CheckResult(f"prop_{worker}_{i}", Status.PROVEN, k=1,
                             stats=ProofStats(wall_seconds=0.01))
        store.store(f"key_{worker}_{i}", result)
        store.record(design=f"d{worker}", family="fam",
                     property_name=f"p{i}", strategy="bmc",
                     status="proven", wall_seconds=0.01,
                     from_cache=False)
    store.close()


class TestConcurrentStoreWriters:
    def test_parallel_writers_never_lose_a_row(self, tmp_path):
        """Four processes hammer one store; WAL + busy-timeout retries
        must land every single write (the 'database is locked' fix)."""
        writers, writes = 4, 25
        procs = [Process(target=_hammer_store,
                         args=(str(tmp_path), w, writes))
                 for w in range(writers)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        store = ProofStore.open(tmp_path)
        assert len(store) == writers * writes
        assert store._conn.execute(
            "SELECT COUNT(*) FROM ledger").fetchone()[0] == writers * writes
