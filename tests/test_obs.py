"""Observability: metrics registry, span tracing, service /metrics."""

import json
import sys
import urllib.request

import pytest

from repro.cli import main
from repro.dist import ProofService, RemoteWorkQueue, WorkQueue, Worker
from repro.flow import run_campaign
from repro.obs import (MetricsRegistry, get_registry, metrics_enabled,
                       set_metrics_enabled, span)
from repro.obs import events
from repro.obs import metrics as obs_metrics
from repro.obs import tracing
from scripts.trace_report import aggregate, build_tree, load_spans


@pytest.fixture(autouse=True)
def _isolate_obs_globals():
    """Tests must not leak a tracer, a journal, or a disabled-metrics
    flag."""
    enabled = metrics_enabled()
    yield
    tracing.shutdown()
    events.shutdown()
    set_metrics_enabled(enabled)


@pytest.fixture
def service(tmp_path):
    svc = ProofService(cache_dir=tmp_path / "served", port=0).start()
    yield svc
    svc.close()


class TestMetricsRegistry:
    def test_counter_and_gauge_basics(self):
        reg = MetricsRegistry()
        hits = reg.counter("hits_total", "hits")
        hits.inc()
        hits.inc(2.5)
        assert hits.value == 3.5
        with pytest.raises(ValueError):
            hits.inc(-1)
        depth = reg.gauge("depth", "queue depth")
        depth.set(7)
        depth.inc(3)
        depth.dec()
        assert depth.value == 9

    def test_registration_is_idempotent_but_typed(self):
        reg = MetricsRegistry()
        first = reg.counter("x_total", "help", labels=("a",))
        assert reg.counter("x_total", labels=("a",)) is first
        with pytest.raises(ValueError):
            reg.gauge("x_total")                    # kind mismatch
        with pytest.raises(ValueError):
            reg.counter("x_total", labels=("b",))   # labels mismatch

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("has space")
        with pytest.raises(ValueError):
            reg.counter("ok_total", labels=("bad-label",))

    def test_labels_create_independent_children(self):
        reg = MetricsRegistry()
        fam = reg.counter("req_total", labels=("endpoint", "status"))
        fam.labels("/health", "200").inc()
        fam.labels("/health", "200").inc()
        fam.labels("/metrics", "404").inc()
        assert fam.labels("/health", "200").value == 2
        assert fam.labels("/metrics", "404").value == 1
        with pytest.raises(ValueError):
            fam.labels("only-one")

    def test_histogram_buckets_are_cumulative_in_render(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat_seconds", "latency",
                             buckets=(0.1, 1.0))
        for value in (0.05, 0.05, 0.5, 5.0):
            hist.observe(value)
        text = reg.render()
        assert 'lat_seconds_bucket{le="0.1"} 2' in text
        assert 'lat_seconds_bucket{le="1"} 3' in text
        assert 'lat_seconds_bucket{le="+Inf"} 4' in text
        assert "lat_seconds_count 4" in text
        assert "lat_seconds_sum 5.6" in text

    def test_observation_on_boundary_lands_in_that_bucket(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h", buckets=(0.1,))
        hist.observe(0.1)   # le="0.1" is inclusive, per Prometheus
        assert 'h_bucket{le="0.1"} 1' in reg.render()

    def test_render_format_and_label_escaping(self):
        reg = MetricsRegistry()
        fam = reg.counter("odd_total", "weird labels", labels=("v",))
        fam.labels('say "hi"\n').inc()
        text = reg.render()
        assert "# HELP odd_total weird labels" in text
        assert "# TYPE odd_total counter" in text
        assert r'odd_total{v="say \"hi\"\n"} 1' in text
        assert text.endswith("\n")

    def test_snapshot_and_delta(self):
        reg = MetricsRegistry()
        reqs = reg.counter("req_total", labels=("ep",))
        depth = reg.gauge("depth")
        lat = reg.histogram("lat_seconds", buckets=(1.0,))
        reqs.labels("/a").inc(2)
        depth.set(5)
        lat.observe(0.5)
        before = reg.snapshot()
        assert before["req_total"]["samples"] == {'{ep="/a"}': 2}
        assert before["lat_seconds"]["samples"] == \
            {"_sum": 0.5, "_count": 1}   # buckets stay out of snapshots

        reqs.labels("/a").inc()
        reqs.labels("/b").inc(3)
        depth.set(1)
        grown = obs_metrics.delta(before, reg.snapshot())
        assert grown["req_total"]["samples"] == \
            {'{ep="/a"}': 1, '{ep="/b"}': 3}
        assert grown["depth"]["samples"] == {"": 1}  # gauges: level
        assert "lat_seconds" not in grown            # zero growth

    def test_enabled_flag_round_trip(self):
        set_metrics_enabled(False)
        assert metrics_enabled() is False
        set_metrics_enabled(True)
        assert metrics_enabled() is True

    def test_default_registry_is_shared(self):
        assert get_registry() is get_registry()
        fam = obs_metrics.counter("test_shared_total")
        assert get_registry().counter("test_shared_total") is fam


class TestSolverMetrics:
    @staticmethod
    def _check_once():
        from repro.ir import expr as E
        from repro.ir.system import TransitionSystem
        from repro.mc.cache import run_cached
        from repro.mc.property import SafetyProperty

        system = TransitionSystem("tiny")
        count = system.add_state("count", 8, init=E.const(0, 8))
        system.set_next("count", E.add(count, E.const(1, 8)))
        prop = SafetyProperty.from_invariant(
            "small", E.ult(count, E.const(200, 8)))
        run_cached("bmc(bound=5)", system, prop, {}, cache=None)

    def test_solver_publishes_effort_when_enabled(self):
        props = obs_metrics.counter("repro_solver_propagations_total")
        solves = obs_metrics.counter("repro_solver_solves_total")
        set_metrics_enabled(True)
        before = (props.value, solves.value)
        self._check_once()
        assert solves.value > before[1]
        assert props.value > before[0]

    def test_solver_is_silent_when_disabled(self):
        solves = obs_metrics.counter("repro_solver_solves_total")
        set_metrics_enabled(False)
        before = solves.value
        self._check_once()
        assert solves.value == before


class TestPdrMetrics:
    """PDR's query mix: the same numbers in the result's detail line
    and in the `repro_pdr_*` families."""

    @staticmethod
    def _gray_counter():
        from repro.designs import get_design
        from repro.mc.engine import ProofEngine
        from repro.sva.compile import MonitorContext

        design = get_design("gray_counter")
        ctx = MonitorContext(design.system())
        spec = design.property_spec("unit_distance")
        prop = ctx.add(spec.sva, name=spec.name)
        return ProofEngine(ctx.system).check(prop, "pdr", max_frames=8)

    @staticmethod
    def _pdr_samples():
        snapshot = get_registry().snapshot()
        return {name: dict(snapshot[name]["samples"])
                for name in ("repro_pdr_queries_total",
                             "repro_pdr_pushes_skipped_total",
                             "repro_pdr_core_literals_dropped_total")}

    def test_detail_and_counters_agree(self):
        import re

        set_metrics_enabled(True)
        before = self._pdr_samples()
        result = self._gray_counter()
        after = self._pdr_samples()
        grown = {name: {key: value - before[name].get(key, 0)
                        for key, value in samples.items()}
                 for name, samples in after.items()}
        match = re.search(r"; (\d+) queries: (.+)$", result.detail)
        assert match, result.detail
        assert int(match.group(1)) == result.stats.sat_queries
        mix = {kind: int(n) for n, kind in
               re.findall(r"(\d+) (\w+)", match.group(2))
               if kind != "skipped"}
        assert sum(mix.values()) == result.stats.sat_queries
        assert {"bad", "consecution", "generalize", "push"} <= set(mix)
        assert mix == {key[len('{kind="'):-len('"}')]: int(value)
                       for key, value
                       in grown["repro_pdr_queries_total"].items() if value}
        skipped = re.search(r"push \((\d+) skipped\)", result.detail)
        assert skipped and int(skipped.group(1)) == \
            grown["repro_pdr_pushes_skipped_total"][""] > 0
        assert grown["repro_pdr_core_literals_dropped_total"][""] > 0

    def test_silent_when_disabled(self):
        set_metrics_enabled(False)
        before = self._pdr_samples()
        result = self._gray_counter()
        assert "queries:" in result.detail     # the record still says
        assert self._pdr_samples() == before


class TestTracing:
    def test_span_is_noop_without_tracer(self):
        assert tracing.active() is None
        with span("anything") as handle:
            assert handle is None
        assert tracing.current_context() is None

    def test_nested_spans_parent_automatically(self, tmp_path):
        tracer = tracing.configure(tmp_path, trace_id="t1")
        with span("outer") as outer:
            with span("inner", detail="x"):
                pass
        tracing.shutdown()
        spans = {s["name"]: s for s in load_spans(tmp_path)}
        assert spans["outer"]["parent_id"] is None
        assert spans["inner"]["parent_id"] == outer.span_id
        assert spans["inner"]["attrs"] == {"detail": "x"}
        assert spans["inner"]["trace_id"] == tracer.trace_id == "t1"
        assert spans["inner"]["dur"] >= 0

    def test_explicit_parent_overrides_ambient(self, tmp_path):
        tracing.configure(tmp_path)
        with span("ambient"):
            with span("child", parent_id="remote-parent"):
                pass
        tracing.shutdown()
        spans = {s["name"]: s for s in load_spans(tmp_path)}
        assert spans["child"]["parent_id"] == "remote-parent"

    def test_exception_is_recorded_and_reraised(self, tmp_path):
        tracing.configure(tmp_path)
        with pytest.raises(RuntimeError):
            with span("doomed"):
                raise RuntimeError("boom")
        tracing.shutdown()
        (event,) = load_spans(tmp_path)
        assert event["attrs"]["error"] == "RuntimeError"

    def test_env_round_trip_joins_the_trace(self, tmp_path):
        tracer = tracing.configure(tmp_path, trace_id="abc")
        env = tracer.env()
        assert env == {"REPRO_TRACE_DIR": str(tmp_path),
                       "REPRO_TRACE_ID": "abc"}
        tracing.shutdown()
        joined = tracing.configure_from_env(env)
        assert joined is not None and joined.trace_id == "abc"
        assert tracing.configure_from_env({}) is None

    def test_adopt_is_idempotent(self, tmp_path):
        tracing.configure(tmp_path, trace_id="abc")
        with span("s"):
            ctx = tracing.current_context()
        assert ctx.trace_id == "abc"
        first = tracing.active()
        assert tracing.adopt(ctx) is True
        assert tracing.active() is first       # no churn when joined
        tracing.shutdown()
        assert tracing.adopt(ctx) is True      # re-joins from scratch
        assert tracing.active().trace_id == "abc"

    def test_broken_sink_goes_silent_not_fatal(self, tmp_path):
        tracer = tracing.configure(tmp_path)
        cycle: dict = {}
        cycle["self"] = cycle
        tracer.emit({"bad": cycle})        # unserialisable → broken
        with span("after-breakage"):
            pass
        assert load_spans(tmp_path) == []


class TestTraceReport:
    def _event(self, span_id, parent, name, **extra):
        return {"trace_id": "t", "span_id": span_id,
                "parent_id": parent, "name": name, "start": 0.0,
                "dur": 1.0, "host": "h", "pid": 1, **extra}

    def test_tree_and_orphan_detection(self):
        spans = [self._event("a", None, "campaign"),
                 self._event("b", "a", "dispatch"),
                 self._event("c", "b", "job"),
                 self._event("x", "missing", "check")]
        roots, orphans, children = build_tree(spans)
        assert [r["span_id"] for r in roots] == ["a"]
        assert [o["span_id"] for o in orphans] == ["x"]
        assert [c["span_id"] for c in children["a"]] == ["b"]

    def test_aggregate_groups_by_attr(self):
        spans = [self._event("a", None, "job",
                             attrs={"worker": "w1"}),
                 self._event("b", None, "job",
                             attrs={"worker": "w1"}),
                 self._event("c", None, "job",
                             attrs={"worker": "w2"})]
        totals = aggregate(spans, "job", "worker")
        assert totals["w1"] == (2, 2.0)
        assert totals["w2"] == (1, 1.0)

    def test_load_skips_torn_lines(self, tmp_path):
        path = tmp_path / "trace-h-1.jsonl"
        good = json.dumps(self._event("a", None, "s"))
        path.write_text(good + "\n" + '{"torn": \n', encoding="utf-8")
        assert len(load_spans(tmp_path)) == 1

    def test_strict_cli_exit_codes(self, tmp_path, capsys):
        from scripts import trace_report
        path = tmp_path / "trace-h-1.jsonl"
        path.write_text(
            json.dumps(self._event("a", None, "campaign")) + "\n" +
            json.dumps(self._event("x", "gone", "check")) + "\n",
            encoding="utf-8")
        import sys
        argv = sys.argv
        try:
            sys.argv = ["trace_report.py", str(tmp_path), "--strict"]
            assert trace_report.main() == 1
            sys.argv = ["trace_report.py", str(tmp_path)]
            assert trace_report.main() == 0
        finally:
            sys.argv = argv
        assert "orphan" in capsys.readouterr().out


class TestDistributedTraceStitching:
    def test_two_worker_http_campaign_yields_one_tree(self, service,
                                                      tmp_path):
        """The acceptance bar: a distributed campaign over the HTTP
        backend, traced, reconstructs as ONE tree — a single campaign
        root, zero orphan spans, with spans contributed by the
        coordinator process and both worker processes."""
        trace_dir = tmp_path / "trace"
        report = run_campaign(
            designs=["updown_counter", "sync_counters_bug"],
            backend=service.address, workers=2, lease_seconds=10,
            max_k=3, trace_dir=trace_dir)
        assert report.mismatches == 0
        assert report.trace_id

        spans = load_spans(trace_dir)
        assert {s["trace_id"] for s in spans} == {report.trace_id}
        roots, orphans, children = build_tree(spans)
        assert [r["name"] for r in roots] == ["campaign"]
        assert orphans == []

        # Every span is reachable from the single root.
        reachable = set()
        stack = [roots[0]["span_id"]]
        while stack:
            node = stack.pop()
            reachable.add(node)
            stack.extend(c["span_id"] for c in children.get(node, ()))
        assert reachable == {s["span_id"] for s in spans}

        # The tree genuinely crosses processes: the coordinator plus
        # at least one spawned worker contributed spans, and every
        # dispatched job produced a "job" span under "dispatch".
        pids = {s["pid"] for s in spans}
        assert len(pids) >= 2
        job_spans = [s for s in spans if s["name"] == "job"]
        assert job_spans and all(s["pid"] != roots[0]["pid"]
                                 for s in job_spans)
        assert {s["name"] for s in children[roots[0]["span_id"]]} == \
            {"compile", "dispatch", "record"}
        checks = [s for s in spans if s["name"] == "check"]
        assert checks, "solver checks must appear in the trace"
        # Tracing leaves no global behind once the campaign returns.
        assert tracing.active() is None

    def test_untraced_campaign_emits_nothing(self, tmp_path):
        report = run_campaign(designs=["updown_counter"], max_k=3,
                              cache_dir=tmp_path / "cache")
        assert report.trace_id == ""
        assert report.phase_seconds   # phases are measured regardless
        assert "phases:" in "\n".join(report.summary_lines())


class TestServiceObservability:
    def test_metrics_endpoint_serves_prometheus_text(self, service):
        queue = RemoteWorkQueue(service.address)
        queue.enqueue([])   # one POST so a latency sample exists
        with urllib.request.urlopen(f"{service.address}/metrics",
                                    timeout=5) as response:
            assert response.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4")
            text = response.read().decode()
        assert "# TYPE repro_http_requests_total counter" in text
        assert 'endpoint="queue.enqueue"' in text
        assert "repro_http_request_seconds_bucket" in text
        assert 'repro_queue_jobs{status="pending"} 0' in text
        assert "repro_service_uptime_seconds" in text
        # The /metrics GET itself shows up on the next scrape.
        with urllib.request.urlopen(f"{service.address}/metrics",
                                    timeout=5) as response:
            text = response.read().decode()
        assert 'endpoint="/metrics"' in text

    def test_queue_metrics_track_lease_churn(self, service, tmp_path):
        registry = service.metrics
        queue = RemoteWorkQueue(service.address)
        queue.enqueue([_spec("a"), _spec("b")])
        queue.claim("w1", lease_seconds=0.01)
        import time
        time.sleep(0.02)
        assert queue.requeue_expired() == [("a", "w1")]
        queue.counts()   # depth gauges publish on every counts() poll
        snap = registry.snapshot()
        assert snap["repro_queue_enqueued_total"]["samples"][""] == 2
        assert snap["repro_queue_requeued_total"]["samples"][""] == 1
        claims = snap["repro_queue_claims_total"]["samples"]
        assert claims['{result="claimed"}'] == 1
        assert snap["repro_queue_jobs"]["samples"]['{status="pending"}'] \
            == 2

    def test_poisoned_jobs_count_separately(self, tmp_path):
        registry = MetricsRegistry()
        queue = WorkQueue.open(tmp_path, registry=registry)
        queue.enqueue([_spec("a")], max_attempts=1)
        import time
        queue.claim("w1", lease_seconds=0.01)
        time.sleep(0.02)
        assert queue.requeue_expired() == [("a", "w1")]
        snap = registry.snapshot()
        assert snap["repro_queue_poisoned_total"]["samples"][""] == 1
        assert snap["repro_queue_requeued_total"]["samples"][""] == 0
        queue.close()

    def test_503_reasons_are_tagged_distinctly(self, service):
        service.note_unavailable("lock_contention")
        service.note_unavailable("lock_contention")
        service.note_unavailable("shutdown")
        assert service.unavailable_counts() == \
            {"shutdown": 1, "lock_contention": 2}
        with urllib.request.urlopen(f"{service.address}/health",
                                    timeout=5) as response:
            payload = json.loads(response.read())
        assert payload["unavailable_503"] == \
            {"shutdown": 1, "lock_contention": 2}
        text = service.render_metrics()
        assert 'repro_http_unavailable_total{reason="lock_contention"}' \
            " 2" in text
        assert 'repro_http_unavailable_total{reason="shutdown"} 1' \
            in text

    def test_worker_metrics_cover_claims_and_jobs(self, service):
        queue = RemoteWorkQueue(service.address)
        queue.enqueue(_design_specs("updown_counter"))
        queue.set_state("closed")
        jobs = obs_metrics.counter("repro_worker_jobs_total",
                                   labels=("result",))
        claims = obs_metrics.histogram("repro_worker_claim_seconds")
        before = (jobs.labels("completed").value,
                  claims._default.count)
        done = Worker(service.address, worker_id="w1",
                      lease_seconds=10, poll_interval=0.02).run()
        assert done == 2
        assert jobs.labels("completed").value == before[0] + 2
        assert claims._default.count > before[1]


class TestStatusCli:
    def test_remote_status(self, service, capsys):
        assert main(["status", "--backend", service.address,
                     "--metrics"]) == 0
        out = capsys.readouterr().out
        assert f"backend {service.address}" in out
        assert "queue: state=open" in out
        assert "503s served: shutdown=0, lock_contention=0" in out
        assert "# TYPE repro_http_requests_total counter" in out

    def test_local_status(self, tmp_path, capsys):
        run_campaign(designs=["updown_counter"], max_k=3,
                     cache_dir=tmp_path)
        assert main(["status", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "queue: state=" in out
        assert "store:" in out

    def test_status_requires_a_target(self, capsys):
        assert main(["status"]) != 0
        assert "needs a target" in capsys.readouterr().err

    def test_unreachable_backend_fails_cleanly(self, capsys):
        assert main(["status", "--backend", "http://127.0.0.1:9"]) == 1
        assert capsys.readouterr().err != ""

    def test_campaign_trace_flag_prints_pointer(self, tmp_path, capsys):
        assert main(["campaign", "updown_counter", "--max-k", "2",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--trace", str(tmp_path / "trace")]) == 0
        out = capsys.readouterr().out
        assert "trace " in out and "trace_report.py" in out
        assert load_spans(tmp_path / "trace")


class TestEventJournal:
    def test_emit_is_noop_without_journal(self):
        assert events.active() is None
        events.emit("orphaned", detail=1)        # must not raise
        assert events.slow_solve_threshold() is None

    def test_configure_emit_load_round_trip(self, tmp_path):
        journal = events.configure(tmp_path, slow_solve_seconds=2.5)
        assert events.active() is journal
        assert events.slow_solve_threshold() == 2.5
        events.emit("check_start", design="d", property="p")
        events.emit("check_finish", design="d", status="proven")
        loaded = events.load_events(tmp_path)
        assert [e["kind"] for e in loaded] == \
            ["check_start", "check_finish"]
        first = loaded[0]
        assert first["design"] == "d" and first["property"] == "p"
        for always in ("ts", "kind", "host", "pid"):
            assert always in first
        assert "trace_id" not in first           # no tracer configured
        events.shutdown()
        assert events.active() is None

    def test_events_carry_ambient_trace_context(self, tmp_path):
        tracing.configure(tmp_path / "trace", trace_id="t9")
        events.configure(tmp_path / "events")
        with span("solve") as handle:
            events.emit("check_start")
        events.shutdown()
        (event,) = events.load_events(tmp_path / "events")
        assert event["trace_id"] == "t9"
        assert event["span_id"] == handle.span_id

    def test_ring_is_bounded_and_filterable(self, tmp_path):
        journal = events.EventJournal(tmp_path, ring_size=3)
        for i in range(5):
            journal.emit("tick", i=i)
        journal.emit("tock")
        assert len(journal.recent()) == 3
        assert [e["i"] for e in journal.recent("tick")] == [3, 4]
        journal.close()

    def test_load_skips_torn_and_foreign_files(self, tmp_path):
        path = tmp_path / "events-h-1.jsonl"
        later = json.dumps({"ts": 2.0, "kind": "b"})
        earlier = json.dumps({"ts": 1.0, "kind": "a"})
        path.write_text(later + "\n" + earlier + "\n" + '{"torn": \n',
                        encoding="utf-8")
        (tmp_path / "notes.txt").write_text("not an event file")
        loaded = events.load_events(tmp_path)
        assert [e["kind"] for e in loaded] == ["a", "b"]  # ts-sorted
        assert events.load_events(tmp_path / "missing") == []

    def test_env_round_trip_joins_the_journal(self, tmp_path):
        journal = events.configure(tmp_path, slow_solve_seconds=7.0)
        env = journal.env()
        assert env == {"REPRO_EVENTS_DIR": str(tmp_path),
                       "REPRO_SLOW_SOLVE_SECONDS": "7.0"}
        events.shutdown()
        joined = events.configure_from_env(env)
        assert joined is not None
        assert joined.slow_solve_seconds == 7.0
        assert joined.events_dir == tmp_path
        assert events.configure_from_env({}) is None

    def test_broken_sink_goes_silent_ring_keeps_filling(self, tmp_path):
        journal = events.configure(tmp_path)
        journal.emit("first")
        journal._handle().close()        # simulate an I/O failure
        journal.emit("second")           # must not raise
        assert [e["kind"] for e in journal.recent()] == \
            ["first", "second"]
        events.shutdown()
        assert [e["kind"] for e in events.load_events(tmp_path)] == \
            ["first"]

    def test_campaign_journal_records_forensics(self, tmp_path):
        report = run_campaign(designs=["updown_counter"], max_k=3,
                              cache_dir=tmp_path / "cache",
                              events_dir=tmp_path / "events")
        assert report.mismatches == 0
        loaded = events.load_events(tmp_path / "events")
        kinds = [e["kind"] for e in loaded]
        assert kinds[0] == "campaign_start"
        assert kinds[-1] == "campaign_finish"
        checks = [e for e in loaded if e["kind"] == "check_finish"]
        assert checks
        assert all(e["origin"] in ("solver", "cache") for e in checks)
        assert events.active() is None   # campaign cleans up after itself

    def test_store_settled_campaign_journals_checks_but_no_fabric(
            self, service, tmp_path, coordinators):
        """A warm distributed rerun is settled by the coordinator's
        probe: the journal shows one cache-origin ``check_finish`` per
        consulted slot under the campaign's trace id — and no worker,
        claim or job, because none existed."""
        def run(label):
            return run_campaign(
                designs=["updown_counter", "sync_counters_bug"],
                backend=service.address, workers=2, lease_seconds=10,
                max_k=3, trace_dir=tmp_path / label / "trace",
                events_dir=tmp_path / label / "events")

        cold, warm = run("cold"), run("warm")
        assert coordinators[-1]._spawned == 0
        cold_kinds = {e["kind"] for e in
                      events.load_events(tmp_path / "cold" / "events")}
        assert {"worker_start", "queue_claim", "job_start"} <= cold_kinds

        journal = events.load_events(tmp_path / "warm" / "events")
        kinds = [e["kind"] for e in journal]
        assert kinds[0] == "campaign_start"
        assert kinds[-1] == "campaign_finish"
        assert not {"worker_start", "worker_exit", "queue_claim",
                    "job_start", "job_finish"} & set(kinds)
        checks = [e for e in journal if e["kind"] == "check_finish"]
        assert len(checks) == warm.cache.hits == len(warm.rows)
        assert warm.trace_id and warm.trace_id != cold.trace_id
        for event in checks:
            assert event["origin"] == "cache" and event["tier"] == "disk"
            assert event["trace_id"] == warm.trace_id
        assert sorted(e["property"] for e in checks) == \
            sorted(r.property_name for r in warm.rows)
        # Store-settled jobs have no "job" span and no second process.
        spans = load_spans(tmp_path / "warm" / "trace")
        assert {s["name"] for s in spans} == \
            {"campaign", "compile", "dispatch", "record"}
        assert len({s["pid"] for s in spans}) == 1


class TestModeParity:
    """``jobs`` decides who executes a cache miss and nothing else: the
    inline race and the pooled one report the same verdicts, the same
    attempt-log shape, and — pass for pass — the same journal events
    and ``repro_checks_total`` growth."""

    CORPUS_DESIGN = "counters/updown_counter.aag"
    ANSWERED = {"solver", "memory", "disk"}
    UNRUN = {"skipped", "cancelled"}

    @staticmethod
    def _design(name):
        from pathlib import Path

        from repro.designs import get_design
        from repro.formats.designio import import_design
        if "/" not in name:
            return get_design(name)
        return import_design(
            Path(__file__).resolve().parents[1] / "corpus" / name)

    def _check_log(self, design, session, outcome):
        from repro.campaign import race_specs
        from repro.mc.portfolio import DEFAULT_PORTFOLIO
        configured = race_specs(
            DEFAULT_PORTFOLIO,
            max_k=design.property_spec(outcome.property_name).max_k,
            bound=session.engine_config.bmc_bound,
            simple_path=session.engine_config.simple_path)
        log = outcome.attempt_log
        assert tuple(row["strategy"] for row in log) == configured
        winner, = [row for row in log if row["winner"]]
        assert winner["strategy"] == outcome.strategy
        for row in log:
            assert row["origin"] in (self.ANSWERED if row["status"]
                                     else self.UNRUN), row

    def _cold_then_warm(self, name, jobs, events_dir):
        """Per pass: ({property: (status, winner)}, check_finish
        multiset, repro_checks_total growth)."""
        from repro.flow import VerificationSession
        design = self._design(name)
        session = VerificationSession(design)
        passes = []
        for label in ("cold", "warm"):
            events.configure(events_dir / label)
            before = get_registry().snapshot()
            batch = session.verify_all(jobs=jobs)
            grown = obs_metrics.delta(before, get_registry().snapshot())
            events.shutdown()
            for outcome in batch.outcomes:
                self._check_log(design, session, outcome)
            finished = sorted(
                (e["property"], e["strategy"], e["status"], e["origin"],
                 e.get("tier"))
                for e in events.load_events(events_dir / label)
                if e["kind"] == "check_finish")
            passes.append((
                {o.property_name: (o.status, o.strategy)
                 for o in batch.outcomes},
                finished,
                grown.get("repro_checks_total", {}).get("samples", {})))
        return passes

    @pytest.mark.parametrize(
        "name", ["sync_counters", "sync_counters_bug", CORPUS_DESIGN])
    def test_inline_and_pooled_races_report_alike(self, name, tmp_path):
        (cold1, _, cold1_counts), (warm1, warm1_events, warm1_counts) = \
            self._cold_then_warm(name, 1, tmp_path / "jobs1")
        (cold2, _, cold2_counts), (warm2, warm2_events, warm2_counts) = \
            self._cold_then_warm(name, 2, tmp_path / "jobs2")
        # Cold: same verdicts.  Winners are only compared where they
        # cannot depend on timing — a pooled race between two racers
        # that can both refute is won by whichever finishes first.
        status = lambda verdicts: {p: s for p, (s, _w) in verdicts.items()}
        assert status(cold1) == status(cold2)
        for prop, (verdict, winner) in cold1.items():
            if verdict.value != "violated":
                assert cold2[prop] == (verdict, winner)
        # The pool's solver attempts are counted in this process.
        solved = lambda counts: sum(
            n for labels, n in counts.items() if 'origin="solver"' in labels)
        assert solved(cold1_counts) > 0
        assert solved(cold2_counts) >= solved(cold1_counts)
        # Warm: everything is answered from the cache, identically.
        assert warm1 == warm2
        assert warm1_events and warm1_events == warm2_events
        assert all(origin == "cache" and tier == "memory"
                   for *_, origin, tier in warm1_events)
        assert warm1_counts and warm1_counts == warm2_counts

    MODES = {"jobs=1": dict(jobs=1), "jobs=2": dict(jobs=2),
             "workers=2": dict(workers=2, lease_seconds=10)}

    def test_warm_campaign_reports_alike_inline_pooled_and_distributed(
            self, tmp_path):
        """The warm column: whoever would have executed a miss — this
        process, a pool, or two workers behind a queue — a campaign the
        store settles reports the same rows, the same cache traffic,
        the same journal events and the same counter growth, because
        all three start with the same probe."""
        columns = {}
        for label, mode in self.MODES.items():
            cache_dir = tmp_path / label
            cold = run_campaign(designs=["updown_counter",
                                         "sync_counters_bug"],
                                cache_dir=cache_dir, max_k=3, **mode)
            before = get_registry().snapshot()
            warm = run_campaign(designs=["updown_counter",
                                         "sync_counters_bug"],
                                cache_dir=cache_dir, max_k=3,
                                events_dir=tmp_path / label / "events",
                                **mode)
            grown = obs_metrics.delta(before, get_registry().snapshot())
            assert {(r.property_name, r.status) for r in warm.rows} == \
                {(r.property_name, r.status) for r in cold.rows}
            columns[label] = (
                [(r.design, r.property_name, r.status, r.strategy,
                  r.from_cache, r.provenance, r.worker,
                  [(a["strategy"], a["status"], a["origin"], a["winner"])
                   for a in r.attempts]) for r in warm.rows],
                (warm.cache.hits, warm.cache.misses, warm.cache.stores,
                 warm.cache.disk_hits),
                (warm.dispatched_jobs, warm.fallback_reruns),
                sorted((e["design"], e["property"], e["strategy"],
                        e["status"], e["origin"], e.get("tier"))
                       for e in events.load_events(
                           tmp_path / label / "events")
                       if e["kind"] == "check_finish"),
                grown.get("repro_checks_total", {}).get("samples", {}))
        inline = columns["jobs=1"]
        rows, cache, _dispatched, finished, counts = inline
        assert rows and all(row[4] and row[5] == "store" and row[6] == ""
                            for row in rows)
        assert cache[0] == len(rows) and cache[1:3] == (0, 0)
        assert finished and counts
        assert columns["jobs=2"] == inline
        assert columns["workers=2"] == inline


class TestMetricsExpositionEdgeCases:
    """Pin the exposition corner cases scrapers depend on (see the
    audited docstrings in ``repro.obs.metrics``)."""

    def test_escape_label_handles_all_three_and_orders_backslash_first(
            self):
        esc = obs_metrics._escape_label
        assert esc("\\") == "\\\\"
        assert esc('"') == '\\"'
        assert esc("\n") == "\\n"
        # Backslash is escaped FIRST: doing it last would double the
        # backslashes the quote/newline escapes just introduced.
        assert esc('\\"') == '\\\\\\"'
        assert esc("a\\nb") == "a\\\\nb"   # literal \, then n — no newline

    def test_inf_bucket_equals_total_count_even_on_overflow(self):
        reg = MetricsRegistry()
        hist = reg.histogram("over_seconds", buckets=(0.1, 1.0))
        for value in (5.0, 50.0, 500.0):   # all past the finite bounds
            hist.observe(value)
        text = reg.render()
        assert 'over_seconds_bucket{le="0.1"} 0' in text
        assert 'over_seconds_bucket{le="1"} 0' in text
        assert 'over_seconds_bucket{le="+Inf"} 3' in text
        assert "over_seconds_count 3" in text

    def test_delta_reports_gauge_level_not_subtraction(self):
        reg = MetricsRegistry()
        depth = reg.gauge("depth")
        depth.set(5)
        before = reg.snapshot()
        depth.set(2)
        grown = obs_metrics.delta(before, reg.snapshot())
        assert grown["depth"]["samples"] == {"": 2}   # level, not -3

    def test_zero_gauge_dropped_with_zero_growth_series(self):
        reg = MetricsRegistry()
        depth = reg.gauge("depth")
        flat = reg.counter("flat_total")
        depth.set(3)
        flat.inc()
        before = reg.snapshot()
        depth.set(0)
        grown = obs_metrics.delta(before, reg.snapshot())
        assert "depth" not in grown       # 0.0 level is indistinguishable
        assert "flat_total" not in grown  # no growth


class TestEffortLedger:
    @staticmethod
    def _entry(**over):
        entry = {"design": "d1", "property": "p1", "status": "PROVEN",
                 "strategy": "pdr_seeded(seed_lemmas=4)",
                 "provenance": "seeded", "from_cache": False,
                 "fallback": True, "worker": "w1",
                 "wall_seconds": 1.25, "k": 7,
                 "attempts": [{"strategy": "bmc", "status": "timeout"}]}
        entry.update(over)
        return entry

    def test_ledger_round_trip_and_upsert(self, tmp_path):
        from repro.campaign import ProofStore
        store = ProofStore.open(tmp_path)
        store.record_ledger(self._entry())
        entry = store.ledger_entry("d1", "p1")
        assert entry["status"] == "PROVEN"
        assert entry["provenance"] == "seeded"
        assert entry["fallback"] is True
        assert entry["from_cache"] is False
        assert entry["k"] == 7 and entry["wall_seconds"] == 1.25
        assert entry["attempts"] == \
            [{"strategy": "bmc", "status": "timeout"}]
        assert entry["recorded"] > 0
        # One row per (design, property): re-recording replaces.
        store.record_ledger(self._entry(status="UNKNOWN", attempts=[]))
        assert store.ledger_entry("d1", "p1")["status"] == "UNKNOWN"
        store.record_ledger(self._entry(property="p0"))
        rows = store.ledger_rows("d1")
        assert [r["property"] for r in rows] == ["p0", "p1"]
        assert store.ledger_entry("d1", "absent") is None
        store.close()

    def test_verdict_provenance_classification(self):
        from repro.campaign.store import verdict_provenance
        assert verdict_provenance("bmc", from_cache=True) == "store"
        assert verdict_provenance("pdr_seeded(n=1)", False) == "seeded"
        assert verdict_provenance("pdr(seed_lemmas=3)", False) == \
            "seeded"
        assert verdict_provenance("k_induction(max_k=5)", False) == \
            "engine"

    def test_ledger_round_trips_over_http(self, service):
        from repro.dist import RemoteProofStore
        remote = RemoteProofStore(service.address)
        remote.record_ledger(self._entry())
        entry = remote.ledger_entry("d1", "p1")
        assert entry is not None and entry["provenance"] == "seeded"
        assert entry["attempts"] == \
            [{"strategy": "bmc", "status": "timeout"}]
        assert [r["property"] for r in remote.ledger_rows("d1")] == \
            ["p1"]

    def test_remote_ledger_degrades_on_unreachable_backend(self):
        from repro.dist import RemoteProofStore
        remote = RemoteProofStore("http://127.0.0.1:9")
        remote.record_ledger(self._entry())     # swallowed, not raised
        assert remote.ledger_entry("d1", "p1") is None
        assert remote.ledger_rows() == []


class TestTopExplainCli:
    def test_wedged_heuristic_flags_alive_but_stuck_workers(self):
        from repro.cli import _wedged_workers
        fleet = [
            {"worker_id": "ok", "jobs_done": 4, "busy_seconds": 4.0,
             "heartbeat_age_seconds": 1.0, "current_job": "j1",
             "job_age_seconds": 5.0},
            {"worker_id": "stuck", "jobs_done": 4, "busy_seconds": 4.0,
             "heartbeat_age_seconds": 1.0, "current_job": "j2",
             "job_age_seconds": 400.0},
            {"worker_id": "dead", "jobs_done": 4, "busy_seconds": 4.0,
             "heartbeat_age_seconds": 120.0, "current_job": "j3",
             "job_age_seconds": 400.0},
            {"worker_id": "idle", "jobs_done": 0, "busy_seconds": 0.0,
             "heartbeat_age_seconds": 1.0, "current_job": None,
             "job_age_seconds": None},
        ]
        flagged = _wedged_workers(fleet, lease=15.0, factor=10.0)
        # Median per-job solve is 1s; the threshold floors at one
        # lease horizon (15s).  Only "stuck" is alive AND over it.
        assert [(w["worker_id"], t) for w, t in flagged] == \
            [("stuck", 15.0)]
        assert _wedged_workers(fleet[-1:], 15.0, 10.0) == []

    def test_worker_snapshot_reports_leases(self, tmp_path):
        queue = WorkQueue.open(tmp_path)
        queue.register_worker("w1", pid=123)
        queue.enqueue([_spec("a")])
        assert queue.claim("w1", lease_seconds=30) is not None
        (snap,) = queue.worker_snapshot()
        assert snap["worker_id"] == "w1" and snap["pid"] == 123
        assert snap["current_job"] == "a"
        assert snap["job_age_seconds"] >= 0
        assert snap["lease_remaining_seconds"] > 0
        queue.close()

    def test_top_once_local(self, tmp_path, capsys):
        run_campaign(designs=["updown_counter"], max_k=3,
                     cache_dir=tmp_path)
        assert main(["top", "--once", "--cache-dir",
                     str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "repro-verify top" in out
        assert "queue: state=" in out and "store:" in out

    def test_top_once_remote_shows_service_counters(self, service,
                                                    capsys):
        assert main(["top", "--once", "--backend",
                     service.address]) == 0
        out = capsys.readouterr().out
        assert "service:" in out and "claims" in out

    def test_top_once_unreachable_backend_fails(self, capsys):
        assert main(["top", "--once", "--backend",
                     "http://127.0.0.1:9"]) == 1
        assert capsys.readouterr().err != ""

    def test_explain_reconstructs_every_property(self, tmp_path,
                                                 capsys):
        from repro.designs import get_design
        run_campaign(designs=["updown_counter"], max_k=3,
                     cache_dir=tmp_path / "cache",
                     events_dir=tmp_path / "events")
        for spec in get_design("updown_counter").properties:
            assert main(["explain", "updown_counter", spec.name,
                         "--cache-dir", str(tmp_path / "cache"),
                         "--events", str(tmp_path / "events")]) == 0
            out = capsys.readouterr().out
            assert f"updown_counter.{spec.name}:" in out
            assert "provenance:" in out and "winner:" in out
            assert "journal" in out

    def test_explain_missing_entry_fails_cleanly(self, tmp_path,
                                                 capsys):
        assert main(["explain", "ghost", "p",
                     "--cache-dir", str(tmp_path)]) == 1
        assert "no ledger entry" in capsys.readouterr().err


class TestTraceReportArtifacts:
    def _event(self, span_id, parent, name, start=0.0, dur=1.0,
               **extra):
        return {"trace_id": "t", "span_id": span_id,
                "parent_id": parent, "name": name, "start": start,
                "dur": dur, "host": "h", "pid": 1, **extra}

    def test_kind_percentiles(self):
        from scripts.trace_report import kind_percentiles
        spans = [self._event(f"c{i}", None, "check", dur=float(i))
                 for i in range(1, 5)]
        spans.append(self._event("j", None, "job", dur=9.0))
        stats = kind_percentiles(spans)
        assert list(stats) == ["job", "check"]   # sorted by max desc
        count, p50, p95, peak = stats["check"]
        assert (count, peak) == (4, 4.0)
        assert p50 == 2.0 and p95 == 3.0

    def test_fold_stacks_self_time_and_frame_sanitising(self):
        from scripts.trace_report import fold_stacks
        spans = [self._event("a", None, "campaign", dur=10.0),
                 self._event("b", "a", "semi;colon name", dur=6.0),
                 self._event("c", "b", "leaf", dur=2.0)]
        roots, _, children = build_tree(spans)
        lines = fold_stacks(roots, children)
        assert lines == ["campaign 4000",
                         "campaign;semi:colon_name 4000",
                         "campaign;semi:colon_name;leaf 2000"]

    def test_fold_stacks_clamps_parallel_children(self):
        from scripts.trace_report import fold_stacks
        # A parallel strategy race: children sum past the parent wall.
        spans = [self._event("a", None, "check", dur=1.0),
                 self._event("b", "a", "bmc", dur=0.9),
                 self._event("c", "a", "pdr", dur=0.9)]
        roots, _, children = build_tree(spans)
        assert fold_stacks(roots, children)[0] == "check 0"

    def test_render_html_timeline(self):
        from scripts.trace_report import render_html
        spans = [self._event("a", None, "campaign", dur=2.0),
                 self._event("b", "a", "job", start=0.5, dur=1.0,
                             host="w", pid=2,
                             attrs={"worker": "w1"})]
        html = render_html(spans, title='trace <"x">')
        assert html.count('<div class="lane">') == 2   # one per process
        assert "h:1" in html and "w:2 (w1)" in html    # worker annotated
        assert "trace &lt;&quot;x&quot;&gt;" in html
        assert "2.000s wall, 2 spans" in html
        assert render_html([], title="empty").count("no spans") == 1

    def test_cli_writes_folded_and_html_artifacts(self, tmp_path,
                                                  capsys):
        from scripts import trace_report
        trace = tmp_path / "trace-h-1.jsonl"
        trace.write_text(
            json.dumps(self._event("a", None, "campaign")) + "\n" +
            json.dumps(self._event("b", "a", "check")) + "\n",
            encoding="utf-8")
        folded = tmp_path / "stacks.folded"
        html = tmp_path / "timeline.html"
        argv = sys.argv
        try:
            sys.argv = ["trace_report.py", str(trace),
                        "--folded", str(folded), "--html", str(html)]
            assert trace_report.main() == 0
        finally:
            sys.argv = argv
        assert folded.read_text().splitlines() == \
            ["campaign 0", "campaign;check 1000"]
        assert html.read_text().startswith("<!DOCTYPE html>")
        out = capsys.readouterr().out
        assert "folded stacks" in out and "HTML timeline" in out

    def test_strict_failure_names_span_ids(self, tmp_path, capsys):
        from scripts import trace_report
        trace = tmp_path / "trace-h-1.jsonl"
        trace.write_text(
            json.dumps(self._event("a", None, "campaign")) + "\n" +
            json.dumps(self._event("x", "gone", "check")) + "\n",
            encoding="utf-8")
        argv = sys.argv
        try:
            sys.argv = ["trace_report.py", str(tmp_path), "--strict"]
            assert trace_report.main() == 1
        finally:
            sys.argv = argv
        out = capsys.readouterr().out
        assert "orphan span id x" in out
        assert "missing parent gone" in out


def _spec(job_id: str):
    from repro.dist import JobSpec
    return JobSpec(job_id=job_id, design="d", property_name="p",
                   specs=("bmc",), full_specs=("bmc",), priority=0.0)


def _design_specs(design_name: str):
    from repro.designs import get_design
    from repro.dist import JobSpec

    design = get_design(design_name)
    race = ("k_induction(max_k=3)", "bmc")
    return [JobSpec(job_id=f"{design_name}::{spec.name}",
                    design=design_name, property_name=spec.name,
                    specs=race, full_specs=race, priority=float(-i),
                    order=i)
            for i, spec in enumerate(design.properties)]
