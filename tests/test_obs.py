"""Observability: metrics registry, record stream, service /metrics."""

import json
import os
import re
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

from repro.cli import main
from repro.dist import ProofService, RemoteWorkQueue, WorkQueue
from repro.flow.session import run_campaign
from repro.obs import journal, span
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from scripts.trace_report import aggregate, build_tree, load_spans

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def _isolate_obs_globals():
    """Tests must not leak a journal."""
    yield
    journal.shutdown()


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

    def test_a_family_lock_held_across_fork_is_fresh_in_the_child(self):
        """Another thread holds a family's lock as the process forks (a
        service handler mid-increment): the child gets a fresh lock,
        so it can still count, new labelsets included."""
        import signal
        import threading
        reg = MetricsRegistry()
        family = reg.counter("held_total", labels=("k",))
        parent_child = family.labels("x")
        held, release = threading.Event(), threading.Event()

        def hold():
            with family._lock:
                held.set()
                release.wait(30)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert held.wait(30)
            pid = os.fork()
            if pid == 0:
                signal.alarm(10)    # a wedged child dies, not the run
                family.labels("x").inc()
                family.labels("y").inc(2)
                text = reg.render()
                os._exit(0 if 'held_total{k="x"} 1' in text and
                         'held_total{k="y"} 2' in text else 1)
        finally:
            release.set()
            holder.join(30)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert parent_child.value == 0     # the child counted its own


class TestPdrQueryMix:
    """PDR says how it spent its queries in the result's detail line."""

    def test_detail_counts_every_query_by_call_site(self):
        import re

        from repro.designs import get_design
        from repro.mc.engine import ProofEngine
        from repro.sva.compile import MonitorContext

        design = get_design("gray_counter")
        ctx = MonitorContext(design.system())
        spec = design.property_spec("unit_distance")
        prop = ctx.add(spec.sva, name=spec.name)
        result = ProofEngine(ctx.system).check(prop, "pdr", max_frames=8)
        match = re.search(r"; (\d+) queries: (.+)$", result.detail)
        assert match, result.detail
        assert int(match.group(1)) == result.stats.sat_queries
        # A kind's parenthesised note (pushes skipped, core literals
        # dropped) counts no query.
        kinds = re.sub(r" \([^)]*\)", "", match.group(2))
        mix = {kind: int(n) for n, kind in
               re.findall(r"(\d+) (\w+)", kinds)}
        assert sum(mix.values()) == result.stats.sat_queries
        assert {"bad", "consecution", "generalize", "push"} <= set(mix)
        skipped = re.search(r"push \((\d+) skipped\)", result.detail)
        assert skipped and int(skipped.group(1)) > 0


class TestTracing:
    def test_span_is_noop_without_tracer(self):
        assert journal.active() is None
        with span("anything") as handle:
            assert handle is None
        assert journal.current_context() is None

    def test_nested_spans_parent_automatically(self, tmp_path):
        sink = journal.configure(tmp_path, trace_id="t1")
        with span("outer") as outer:
            with span("inner", detail="x"):
                pass
        journal.shutdown()
        spans = {s["kind"]: s for s in journal.load(tmp_path)}
        assert spans["outer"]["parent_id"] is None
        assert spans["inner"]["parent_id"] == outer.span_id
        assert spans["inner"]["detail"] == "x"      # fields are flat
        assert spans["inner"]["trace_id"] == sink.trace_id == "t1"
        assert spans["inner"]["dur"] >= 0
        for always in ("ts", "kind", "host", "pid", "trace_id",
                       "parent_id", "span_id", "dur"):
            assert always in spans["inner"]

    def test_explicit_parent_overrides_ambient(self, tmp_path):
        journal.configure(tmp_path)
        with span("ambient"):
            with span("child", parent_id="remote-parent"):
                pass
        journal.shutdown()
        spans = {s["kind"]: s for s in journal.load(tmp_path)}
        assert spans["child"]["parent_id"] == "remote-parent"

    def test_exception_is_recorded_and_reraised(self, tmp_path):
        journal.configure(tmp_path)
        with pytest.raises(RuntimeError):
            with span("doomed"):
                raise RuntimeError("boom")
        journal.shutdown()
        (record,) = journal.load(tmp_path)
        assert record["error"] == "RuntimeError"

    def test_adopt_is_idempotent(self, tmp_path):
        journal.configure(tmp_path, trace_id="abc")
        with span("s"):
            ctx = journal.current_context()
        assert ctx.trace_id == "abc"
        first = journal.active()
        assert journal.adopt(ctx) == ctx.span_id
        assert journal.active() is first       # no churn when joined
        journal.shutdown()
        assert journal.adopt(ctx) == ctx.span_id   # re-joins from scratch
        assert journal.active().trace_id == "abc"
        assert journal.adopt(None) is None     # nothing to join

    def test_context_pickles_and_parents_the_receiving_span(
            self, tmp_path):
        import pickle
        journal.configure(tmp_path)
        with span("dispatch"):
            wire = pickle.dumps(journal.current_context())
        journal.shutdown()                     # "another process"
        ctx = pickle.loads(wire)
        with span("job", parent_id=journal.adopt(ctx)):
            pass
        journal.shutdown()
        roots, orphans, children = build_tree(load_spans(tmp_path))
        assert [r["kind"] for r in roots] == ["dispatch"] and not orphans
        assert [c["kind"] for c in children[ctx.span_id]] == ["job"]
        assert {r["trace_id"] for r in journal.load(tmp_path)} == \
            {ctx.trace_id}

    def test_broken_sink_goes_silent_not_fatal(self, tmp_path):
        journal.configure(tmp_path)
        cycle: dict = {}
        cycle["self"] = cycle
        journal.emit("bad", payload=cycle)     # unserialisable → broken
        with span("after-breakage"):
            pass
        assert journal.load(tmp_path) == []

    def test_unwritable_directory_disables_the_sink(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        ctx = journal.TraceContext("t", "s", str(blocker / "events"))
        assert journal.adopt(ctx) is None
        assert journal.active() is None
        with span("unrecorded") as handle:     # verification proceeds
            assert handle is None


class TestTraceReport:
    def _event(self, span_id, parent, kind, **extra):
        return {"ts": 0.0, "kind": kind, "host": "h", "pid": 1,
                "trace_id": "t", "parent_id": parent,
                "span_id": span_id, "dur": 1.0, **extra}

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
        spans = [self._event("a", None, "job", worker="w1"),
                 self._event("b", None, "job", worker="w1"),
                 self._event("c", None, "job", worker="w2")]
        totals = aggregate(spans, "job", "worker")
        assert totals["w1"] == (2, 2.0)
        assert totals["w2"] == (1, 1.0)

    def test_load_skips_torn_lines(self, tmp_path):
        path = tmp_path / "journal-h-1.jsonl"
        good = json.dumps(self._event("a", None, "s"))
        point = json.dumps({"ts": 0.0, "kind": "check_start",
                            "parent_id": "a"})
        path.write_text(good + "\n" + point + "\n" + '{"torn": \n',
                        encoding="utf-8")
        # The tree is built from the records that have a span_id.
        assert [s["span_id"] for s in load_spans(tmp_path)] == ["a"]
        assert load_spans(path) == load_spans(tmp_path)   # single file

    def test_strict_cli_exit_codes(self, tmp_path, capsys):
        from scripts import trace_report
        path = tmp_path / "journal-h-1.jsonl"
        path.write_text(
            json.dumps(self._event("a", None, "campaign")) + "\n" +
            json.dumps(self._event("x", "gone", "check")) + "\n",
            encoding="utf-8")
        argv = sys.argv
        try:
            sys.argv = ["trace_report.py", str(tmp_path), "--strict"]
            assert trace_report.main() == 1
            sys.argv = ["trace_report.py", str(tmp_path)]
            assert trace_report.main() == 0
        finally:
            sys.argv = argv
        assert "orphan" in capsys.readouterr().out


def _assert_one_tree(events_dir, report):
    """The acceptance bar for a journaled campaign: every record under
    the campaign's trace id, no span written twice, and the span
    records one tree — a single ``campaign`` root, zero orphans, every
    span reachable from the root.  Returns (records, spans, root,
    children)."""
    records = journal.load(events_dir)
    assert report.trace_id
    assert {r["trace_id"] for r in records} == {report.trace_id}
    spans = [r for r in records if "span_id" in r]
    assert len({s["span_id"] for s in spans}) == len(spans)
    roots, orphans, children = build_tree(spans)
    assert [r["kind"] for r in roots] == ["campaign"]
    assert orphans == []
    reachable = set()
    stack = [roots[0]["span_id"]]
    while stack:
        node = stack.pop()
        reachable.add(node)
        stack.extend(c["span_id"] for c in children.get(node, ()))
    assert reachable == {s["span_id"] for s in spans}
    # Point records hang off a node of the tree (or off nothing: a
    # service thread has no ambient span).
    assert {r["parent_id"] for r in records} <= reachable | {None}
    phases = {c["kind"]: c for c in children[roots[0]["span_id"]]}
    assert set(phases) == {"compile", "dispatch", "store"}
    # Campaign totals join their trace: the report's phase clock IS
    # the span records' clock.
    for name, record in phases.items():
        assert report.phase_seconds[name] == record["dur"]
    assert roots[0]["properties"] == len(report.rows)
    # Journaling leaves no global behind once the campaign returns.
    assert journal.active() is None
    return records, spans, roots[0], children


class TestDistributedTraceStitching:
    def test_two_worker_http_campaign_yields_one_tree(self, service,
                                                      tmp_path):
        """A distributed campaign over the HTTP backend, journaled,
        reconstructs as ONE tree with spans contributed by the
        coordinator process and the worker processes."""
        events_dir = tmp_path / "events"
        report = run_campaign(
            designs=["updown_counter", "sync_counters_bug"],
            backend=service.address, workers=2, lease_seconds=10,
            max_k=3, events_dir=events_dir)
        assert report.mismatches == 0
        records, spans, root, _ = _assert_one_tree(events_dir, report)

        # The tree genuinely crosses processes: the coordinator plus
        # at least one spawned worker contributed spans, and every
        # dispatched job produced a "job" span under "dispatch".
        assert len({s["pid"] for s in spans}) >= 2
        job_spans = [s for s in spans if s["kind"] == "job"]
        assert job_spans and all(s["pid"] != root["pid"]
                                 for s in job_spans)
        assert all(s["result"] == "completed" for s in job_spans)
        checks = [s for s in spans if s["kind"] == "check"]
        assert checks, "solver checks must appear in the tree"
        # The service runs in this process, so its queue forensics
        # land in the same stream.
        assert {"queue_enqueue", "queue_claim", "worker_start",
                "worker_exit", "job_start", "check_start"} <= \
            {r["kind"] for r in records}

    def test_forked_worker_starts_in_the_campaign_journal(self,
                                                          tmp_path):
        """A coordinator's worker is a fork: it records into the
        campaign's journal from its first record, before any job
        names the trace."""
        report = run_campaign(designs=["updown_counter"],
                              cache_dir=tmp_path / "cache", max_k=3,
                              workers=1, lease_seconds=10,
                              events_dir=tmp_path / "events")
        starts = [record for record in journal.load(tmp_path / "events")
                  if record["kind"] == "worker_start"]
        assert [(r["worker"], r["trace_id"]) for r in starts] == \
            [("w1", report.trace_id)]
        assert starts[0]["pid"] != os.getpid()

    MODES = {"jobs=1": dict(jobs=1), "jobs=2": dict(jobs=2),
             "workers=2": dict(workers=2, lease_seconds=10)}

    @pytest.mark.parametrize("mode", MODES)
    def test_every_mode_yields_one_tree_under_one_trace_id(
            self, mode, tmp_path):
        report = run_campaign(
            designs=["updown_counter", "sync_counters_bug"],
            cache_dir=tmp_path / "cache", max_k=3,
            events_dir=tmp_path / "events", **self.MODES[mode])
        assert report.mismatches == 0
        _, spans, _, _ = _assert_one_tree(tmp_path / "events", report)
        for check in (s for s in spans if s["kind"] == "check"):
            # "Slow solve" is a read-time filter: every solver-origin
            # check record carries its duration and the solver effort.
            assert check["origin"] == "solver"
            assert {"status", "k", "solve_seconds", "sat_queries",
                    "conflicts", "propagations"} <= set(check)

    def test_spawned_pool_children_join_the_journal(self, tmp_path):
        """Under the ``spawn`` start method a pool child inherits
        neither the module-global journal nor the environment's say-so:
        it joins through the ``TraceContext`` on its ``CheckTask``."""
        script = (
            "import json, multiprocessing, os, sys\n"
            "from repro.flow.session import run_campaign\n"
            "from repro.obs import journal\n"
            "if __name__ == '__main__':\n"
            "    multiprocessing.set_start_method('spawn')\n"
            "    report = run_campaign(\n"
            "        designs=['updown_counter', 'gray_counter',\n"
            "                 'sync_counters_bug'],\n"
            "        jobs=2, max_k=3, events_dir=sys.argv[1])\n"
            "    checks = [r for r in journal.load(sys.argv[1])\n"
            "              if r['kind'] == 'check']\n"
            "    print(json.dumps({\n"
            "        'parent': os.getpid(),\n"
            "        'pids': sorted({r['pid'] for r in checks}),\n"
            "        'traces': sorted({r['trace_id'] for r in checks}),\n"
            "        'trace_id': report.trace_id}))\n")
        path = tmp_path / "spawned.py"
        path.write_text(script)
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        out = subprocess.run(
            [sys.executable, str(path), str(tmp_path / "events")],
            env=env, capture_output=True, text=True, timeout=120,
            check=True).stdout
        seen = json.loads(out.splitlines()[-1])
        assert set(seen["pids"]) - {seen["parent"]}, seen
        assert seen["traces"] == [seen["trace_id"]]

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

    def test_unknown_post_paths_share_one_invalid_series(self, service):
        """A POST outside the allow-list is booked as ``invalid``, as
        an unknown GET is: distinct bogus paths (removed calls among
        them) must not each mint a new metrics series."""
        import urllib.error
        paths = [f"/store/bogus_{i}" for i in range(20)] + \
            [f"/nowhere_{i}/x" for i in range(20)] + \
            ["/queue/reset", "/store/clear", "/queue/", "/"]
        for path in paths:
            request = urllib.request.Request(
                f"{service.address}{path}", data=b"", method="POST")
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(request, timeout=5)
            assert caught.value.code == 404
        with urllib.request.urlopen(f"{service.address}/metrics",
                                    timeout=5) as response:
            text = response.read().decode()
        series = dict(line.rsplit(" ", 1) for line in text.splitlines()
                      if line.startswith("repro_http_requests_total{"))
        assert list(series) == \
            ['repro_http_requests_total{endpoint="invalid",status="404"}']
        assert float(*series.values()) == len(paths)
        assert "bogus" not in text and "nowhere" not in text

    def test_queue_metrics_track_lease_churn(self, service, tmp_path):
        registry = service.metrics
        queue = RemoteWorkQueue(service.address)
        queue.enqueue([_spec("a"), _spec("b")])
        queue.claim("w1", lease_seconds=0.01)
        import time
        time.sleep(0.02)
        # One supervision tick: the requeue, then the counts() poll the
        # depth gauges publish on.
        assert queue.supervise("coordinator", 30)[1] == [("a", "w1")]
        assert registry.counter("repro_queue_enqueued_total").value == 2
        assert registry.counter("repro_queue_requeued_total").value == 1
        claims = registry.counter("repro_queue_claims_total",
                                  labels=("result",))
        assert claims.labels("claimed").value == 1
        depth = registry.gauge("repro_queue_jobs", labels=("status",))
        assert depth.labels("pending").value == 2

    def test_poisoned_jobs_count_separately(self, tmp_path):
        registry = MetricsRegistry()
        queue = WorkQueue.open(tmp_path, registry=registry)
        queue.enqueue([_spec("a")], max_attempts=1)
        import time
        queue.claim("w1", lease_seconds=0.01)
        time.sleep(0.02)
        assert queue.supervise("coordinator", 30)[1] == [("a", "w1")]
        assert registry.counter("repro_queue_poisoned_total").value == 1
        assert registry.counter("repro_queue_requeued_total").value == 0
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

    def test_catalog_names_exactly_what_a_service_serves(self, service):
        """docs/observability.md's metric catalog lists the families a
        fresh service renders on /metrics, with their kinds — no more
        (a family nothing serves) and no fewer."""
        doc = (REPO_ROOT / "docs" / "observability.md").read_text()
        catalog = doc.split("## Metric catalog", 1)[1].split("\n## ", 1)[0]
        listed = dict(re.findall(r"^\| `(\w+)` \| (\w+) \|", catalog,
                                 re.MULTILINE))
        served = dict(line.split()[2:4]
                      for line in service.render_metrics().splitlines()
                      if line.startswith("# TYPE "))
        assert listed == served


class TestStatusCli:
    def test_remote_status(self, service, capsys):
        # A claim registers its worker, even one that finds nothing.
        assert RemoteWorkQueue(service.address).claim("w1", 30) is None
        assert main(["status", "--backend", service.address]) == 0
        out = capsys.readouterr().out
        assert f"backend {service.address}" in out
        assert "queue: state=open" in out
        assert "store: 0 results\n" in out
        assert "workers" in out and "w1" in out

    def test_local_status(self, tmp_path, capsys):
        run_campaign(designs=["updown_counter"], max_k=3,
                     cache_dir=tmp_path)
        assert main(["status", "--backend", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "queue: none" in out
        assert "store:" in out
        WorkQueue.open(tmp_path).close()
        assert main(["status", "--backend", str(tmp_path)]) == 0
        assert "queue: state=open" in capsys.readouterr().out

    def test_status_creates_nothing_in_the_backend(self, tmp_path,
                                                   capsys):
        assert main(["verify", "updown_counter",
                     "--backend", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["status", "--backend", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "  queue: none\n" in out
        assert "store: 2 results" in out
        # The store's WAL side files stay while this process holds it.
        assert {p.name for p in tmp_path.iterdir()} <= \
            {"proofs.sqlite", "proofs.sqlite-wal", "proofs.sqlite-shm"}

    def test_status_requires_a_target(self, capsys):
        assert main(["status"]) != 0
        assert "needs a target" in capsys.readouterr().err

    def test_unreachable_backend_fails_cleanly(self, capsys):
        assert main(["status", "--backend", "http://127.0.0.1:9"]) == 1
        assert "unreachable" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["top", "--once"],
                                      ["status", "--metrics"]])
    def test_dashboard_knobs_are_gone(self, argv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--backend", str(tmp_path)])
        assert exc.value.code == 2

    def test_read_only_commands_reject_missing_directory(self, tmp_path,
                                                         capsys):
        missing = tmp_path / "no-such-dir"
        for argv in (["status", "--backend", str(missing)],
                     ["explain", "d", "p", "--backend", str(missing)],
                     ["status", "--backend", f"sqlite:{missing}"]):
            assert main(argv) != 0
            assert "no such backend directory" in capsys.readouterr().err
        assert not missing.exists()

    def test_campaign_trace_flag_prints_pointer(self, tmp_path, capsys):
        assert main(["campaign", "updown_counter", "--max-k", "2",
                     "--backend", str(tmp_path / "cache"),
                     "--events", str(tmp_path / "events")]) == 0
        out = capsys.readouterr().out
        assert "trace " in out and "trace_report.py" in out
        assert load_spans(tmp_path / "events")


class TestEventJournal:
    def test_emit_is_noop_without_journal(self):
        assert journal.active() is None
        journal.emit("orphaned", detail=1)       # must not raise

    def test_configure_emit_load_round_trip(self, tmp_path):
        sink = journal.configure(tmp_path)
        assert journal.active() is sink
        journal.emit("check_start", design="d", property="p")
        journal.emit("queue_claim", job_id="j")
        loaded = journal.load(tmp_path)
        assert [r["kind"] for r in loaded] == \
            ["check_start", "queue_claim"]
        first = loaded[0]
        assert first["design"] == "d" and first["property"] == "p"
        for always in ("ts", "kind", "host", "pid", "trace_id",
                       "parent_id"):
            assert always in first
        assert first["trace_id"] == sink.trace_id
        assert first["parent_id"] is None        # no span is current
        assert "span_id" not in first and "dur" not in first
        journal.shutdown()
        assert journal.active() is None

    def test_events_carry_ambient_trace_context(self, tmp_path):
        journal.configure(tmp_path, trace_id="t9")
        with span("solve") as handle:
            journal.emit("check_start")
        journal.shutdown()
        by_kind = {r["kind"]: r for r in journal.load(tmp_path)}
        point, closing = by_kind["check_start"], by_kind["solve"]
        assert point["trace_id"] == closing["trace_id"] == "t9"
        assert point["parent_id"] == handle.span_id == closing["span_id"]

    def test_load_skips_torn_and_foreign_files(self, tmp_path):
        path = tmp_path / "journal-h-1.jsonl"
        later = json.dumps({"ts": 2.0, "kind": "b"})
        earlier = json.dumps({"ts": 1.0, "kind": "a"})
        path.write_text(later + "\n" + earlier + "\n" + '{"torn": \n',
                        encoding="utf-8")
        (tmp_path / "notes.txt").write_text("not a journal file")
        loaded = journal.load(tmp_path)
        assert [r["kind"] for r in loaded] == ["a", "b"]  # ts-sorted
        assert journal.load(tmp_path / "missing") == []

    def test_io_error_silences_the_sink(self, tmp_path):
        sink = journal.configure(tmp_path)
        journal.emit("first")
        sink._handle().close()           # simulate an I/O failure
        journal.emit("second")           # must not raise
        with span("third"):              # nor may a span
            pass
        journal.shutdown()
        assert [r["kind"] for r in journal.load(tmp_path)] == ["first"]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_writes_its_own_file(self, tmp_path):
        journal.configure(tmp_path)
        journal.emit("before_fork")
        pid = os.fork()
        if pid == 0:                     # the child: one record, exit
            journal.emit("from_child")
            os._exit(0)
        assert os.waitpid(pid, 0)[1] == 0
        journal.emit("after_fork")
        journal.shutdown()
        by_pid = {}
        for record in journal.load(tmp_path):
            by_pid.setdefault(record["pid"], []).append(record["kind"])
        assert by_pid == {os.getpid(): ["before_fork", "after_fork"],
                          pid: ["from_child"]}
        assert len(list(tmp_path.glob("journal-*.jsonl"))) == 2

    def test_campaign_journal_records_forensics(self, tmp_path):
        report = run_campaign(designs=["updown_counter"], max_k=3,
                              cache_dir=tmp_path / "cache",
                              events_dir=tmp_path / "events")
        assert report.mismatches == 0
        loaded = journal.load(tmp_path / "events")
        kinds = [r["kind"] for r in loaded]
        # Records sort by when their subject began: the campaign span
        # opens first, and its one record is also the finish event.
        assert set(kinds[:2]) == {"campaign", "campaign_start"}
        assert not {"campaign_finish", "campaign_phase",
                    "check_finish"} & set(kinds)
        checks = [r for r in loaded if r["kind"] == "check"]
        assert checks
        assert all(r["origin"] in ("solver", "cache") for r in checks)
        # One check_start per check that ran; a solver check's record
        # has a duration, and nothing restates it.
        solved = [r for r in checks if r["origin"] == "solver"]
        assert all("dur" in r and "span_id" in r for r in solved)
        assert kinds.count("check_start") == len(solved)
        assert journal.active() is None  # campaign cleans up after itself

    def test_store_settled_campaign_journals_checks_but_no_fabric(
            self, service, tmp_path, coordinators):
        """A warm distributed rerun is settled by the coordinator's
        probe: the journal shows one cache-origin ``check`` record per
        consulted slot under the campaign's trace id — and no worker,
        claim or job, because none existed."""
        def run(label):
            return run_campaign(
                designs=["updown_counter", "sync_counters_bug"],
                backend=service.address, workers=2, lease_seconds=10,
                max_k=3, events_dir=tmp_path / label)

        cold, warm = run("cold"), run("warm")
        assert coordinators[-1]._spawned == 0
        cold_kinds = {r["kind"] for r in journal.load(tmp_path / "cold")}
        assert {"worker_start", "queue_claim", "job_start", "job"} <= \
            cold_kinds

        records = journal.load(tmp_path / "warm")
        kinds = {r["kind"] for r in records}
        assert not {"worker_start", "worker_exit", "queue_claim",
                    "job_start", "job", "check_start"} & kinds
        checks = [r for r in records if r["kind"] == "check"]
        consulted = sorted(row.property_name for row in warm.rows
                           for a in row.attempts if a["origin"] != "skipped")
        assert len(checks) == warm.cache.hits == len(consulted)
        assert warm.trace_id and warm.trace_id != cold.trace_id
        for record in checks:
            # A cache hit is a point record: a tier, no duration.
            assert record["origin"] == "cache" and record["tier"] == "disk"
            assert "dur" not in record and "span_id" not in record
        assert {r["trace_id"] for r in records} == {warm.trace_id}
        assert sorted(r["property"] for r in checks) == consulted
        # Store-settled jobs have no "job" span and no second process.
        spans = load_spans(tmp_path / "warm")
        assert {s["kind"] for s in spans} == \
            {"campaign", "compile", "dispatch", "store"}
        assert len({r["pid"] for r in records}) == 1


class TestModeParity:
    """``jobs`` decides who executes a cache miss and nothing else: the
    inline race and the pooled one report the same verdicts, the same
    attempt-log shape, and — pass for pass — the same ``check``
    records."""

    CORPUS_DESIGN = "counters/updown_counter.aag"
    ANSWERED = {"solver", "memory", "disk"}
    UNRUN = {"skipped", "cancelled", "discarded"}

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
            bound=session.engine_config.bmc_bound)
        log = outcome.attempt_log
        assert tuple(row["strategy"] for row in log) == configured
        winner, = [row for row in log if row["winner"]]
        assert winner["strategy"] == outcome.strategy
        for row in log:
            assert row["origin"] in (self.ANSWERED if row["status"]
                                     else self.UNRUN), row

    def _cold_then_warm(self, name, jobs, events_dir):
        """Per pass: ({property: (status, winner)}, ``check`` record
        multiset)."""
        from repro.flow.session import VerificationSession
        design = self._design(name)
        session = VerificationSession(design)
        passes = []
        for label in ("cold", "warm"):
            journal.configure(events_dir / label)
            batch = session.verify_all(jobs=jobs)
            journal.shutdown()
            for outcome in batch.outcomes:
                self._check_log(design, session, outcome)
            finished = sorted(
                (r["property"], r["strategy"], r["status"], r["origin"],
                 r.get("tier"))
                for r in journal.load(events_dir / label)
                if r["kind"] == "check")
            passes.append((
                {o.property_name: (o.status, o.strategy)
                 for o in batch.outcomes},
                finished))
        return passes

    @pytest.mark.parametrize(
        "name", ["sync_counters", "sync_counters_bug", CORPUS_DESIGN])
    def test_inline_and_pooled_races_report_alike(self, name, tmp_path):
        (cold1, cold1_events), (warm1, warm1_events) = \
            self._cold_then_warm(name, 1, tmp_path / "jobs1")
        (cold2, cold2_events), (warm2, warm2_events) = \
            self._cold_then_warm(name, 2, tmp_path / "jobs2")
        # Cold: same verdicts.  Winners are only compared where they
        # cannot depend on timing — a pooled race between two racers
        # that can both refute is won by whichever finishes first.
        status = lambda verdicts: {p: s for p, (s, _w) in verdicts.items()}
        assert status(cold1) == status(cold2)
        for prop, (verdict, winner) in cold1.items():
            if verdict.value != "violated":
                assert cold2[prop] == (verdict, winner)
        # The pool's solver attempts are journaled like inline ones.
        solved = lambda events: sum(
            1 for *_, origin, _tier in events if origin == "solver")
        assert solved(cold1_events) > 0
        assert solved(cold2_events) >= solved(cold1_events)
        # Warm: everything is answered from the cache, identically.
        assert warm1 == warm2
        assert warm1_events and warm1_events == warm2_events
        assert all(origin == "cache" and tier == "memory"
                   for *_, origin, tier in warm1_events)

    MODES = {"jobs=1": dict(jobs=1), "jobs=2": dict(jobs=2),
             "workers=2": dict(workers=2, lease_seconds=10)}

    def test_warm_campaign_reports_alike_inline_pooled_and_distributed(
            self, tmp_path):
        """The warm column: whoever would have executed a miss — this
        process, a pool, or two workers behind a queue — a campaign the
        store settles reports the same rows, the same cache traffic and
        the same journal events, because all three start with the same
        probe."""
        columns = {}
        for label, mode in self.MODES.items():
            cache_dir = tmp_path / label
            cold = run_campaign(designs=["updown_counter",
                                         "sync_counters_bug"],
                                cache_dir=cache_dir, max_k=3, **mode)
            warm = run_campaign(designs=["updown_counter",
                                         "sync_counters_bug"],
                                cache_dir=cache_dir, max_k=3,
                                events_dir=tmp_path / label / "events",
                                **mode)
            assert {(r.property_name, r.status) for r in warm.rows} == \
                {(r.property_name, r.status) for r in cold.rows}
            columns[label] = (
                [(r.design, r.property_name, r.status, r.strategy,
                  r.from_cache, r.provenance, r.worker,
                  [(a["strategy"], a["status"], a["origin"], a["winner"])
                   for a in r.attempts]) for r in warm.rows],
                (warm.cache.hits, warm.cache.misses, warm.cache.stores,
                 warm.cache.disk_hits),
                sorted((r["design"], r["property"], r["strategy"],
                        r["status"], r["origin"], r.get("tier"))
                       for r in journal.load(tmp_path / label / "events")
                       if r["kind"] == "check"))
        inline = columns["jobs=1"]
        rows, cache, finished = inline
        assert rows and all(row[4] and row[5] == "store" and row[6] == ""
                            for row in rows)
        consulted = [a for row in rows for a in row[7] if a[2] != "skipped"]
        assert cache[0] == len(consulted) and cache[1:3] == (0, 0)
        assert finished
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


class TestEffortLedger:
    @staticmethod
    def _entry(**over):
        from repro.campaign import CampaignRow
        return CampaignRow(**{
            "design": "d1", "property_name": "p1", "family": "fam",
            "status": "PROVEN", "strategy": "pdr_seeded(seed_lemmas=4)",
            "provenance": "seeded", "from_cache": False, "worker": "w1",
            "wall_seconds": 1.25, "k": 7,
            "attempts": [{"strategy": "bmc", "status": "timeout"}],
            **over})

    def test_ledger_round_trip_and_upsert(self, tmp_path):
        from repro.campaign import ProofStore
        store = ProofStore.open(tmp_path)
        store.record_ledger(self._entry())
        entry = store.ledger_entry("d1", "p1")
        assert entry["status"] == "PROVEN"
        assert entry["provenance"] == "seeded"
        assert entry["family"] == "fam" and "fallback" not in entry
        assert entry["from_cache"] is False
        assert entry["k"] == 7 and entry["wall_seconds"] == 1.25
        assert entry["attempts"] == \
            [{"strategy": "bmc", "status": "timeout"}]
        assert entry["recorded"] > 0
        # One row per (design, property): re-recording replaces.
        store.record_ledger(self._entry(status="UNKNOWN", attempts=[]))
        assert store.ledger_entry("d1", "p1")["status"] == "UNKNOWN"
        store.record_ledger(self._entry(property_name="p0"))
        assert store.ledger_entry("d1", "p0")["status"] == "PROVEN"
        assert store.ledger_entry("d1", "p1")["status"] == "UNKNOWN"
        assert store.ledger_entry("d1", "absent") is None
        store.close()

    def test_verdict_provenance_classification(self):
        from repro.campaign.store import verdict_provenance
        assert verdict_provenance("bmc", from_cache=True) == "store"
        assert verdict_provenance("pdr_seeded", False) == "seeded"
        assert verdict_provenance("pdr(seeds=('a == b',))", False) == \
            "seeded"
        assert verdict_provenance("k_induction(max_k=5)", False) == \
            "engine"
        # Seeded means a seed was loaded, not "seed" in the spec text.
        assert verdict_provenance("pdr_seeded(seed_static=False)",
                                  False) == "engine"
        # A spec that no longer resolves (a removed option) is not a
        # seeded run.
        assert verdict_provenance("pdr(seed_store_dir='/x')", False) == \
            "engine"
        assert verdict_provenance("pdr(seed_limit=4)", False) == "engine"
        assert verdict_provenance("", False) == "engine"

    def test_unseeded_pdr_win_is_ledgered_engine(self, tmp_path, capsys):
        """A PDR win is credited to seeding only when a seed was loaded:
        with static seeding off it is an engine verdict in the rows, the
        ledger and ``explain``."""
        from repro.campaign import ProofStore
        for spec, provenance in (("pdr_seeded(seed_static=False)",
                                  "engine"),
                                 ("pdr_seeded", "seeded")):
            cache = tmp_path / provenance
            report = run_campaign(designs=["updown_counter"], max_k=3,
                                  cache_dir=cache, strategies=[spec])
            assert {r.provenance for r in report.rows} == {provenance}
            prop = report.rows[0].property_name
            entry = ProofStore.open(cache).ledger_entry("updown_counter",
                                                        prop)
            assert entry["provenance"] == provenance
            assert main(["explain", "updown_counter", prop,
                         "--backend", str(cache)]) == 0
            assert f"provenance: {provenance} " in capsys.readouterr().out

    def test_explain_credits_a_seeded_verdict_to_the_miner(self,
                                                          tmp_path,
                                                          capsys):
        """``seeded`` means lemmas mined from the design (or explicit
        seeds) won the race with no LLM in the loop: ``explain`` must
        not call it a GenAI proof."""
        from repro.campaign import ProofStore
        store = ProofStore.open(tmp_path)
        store.record_outcomes([self._entry()])
        store.close()
        assert main(["explain", "d1", "p1", "--backend",
                     str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "provenance: seeded" in out
        assert "mined" in out and "GenAI" not in out

    def test_ledger_round_trips_over_http(self, service):
        from repro.dist import RemoteProofStore
        from repro.campaign import ProofStore
        remote = RemoteProofStore(service.address)
        remote.record_outcomes([self._entry()])
        entry = remote.ledger_entry("d1", "p1")
        assert entry is not None and entry["provenance"] == "seeded"
        assert entry["attempts"] == \
            [{"strategy": "bmc", "status": "timeout"}]
        assert remote.ledger_entry("d1", "p0") is None
        # The row landed in the service's own on-disk store.
        served = ProofStore.open(service.cache_dir)
        assert served.ledger_entry("d1", "p1") == entry
        served.close()

    def test_remote_ledger_degrades_on_unreachable_backend(self):
        from repro.dist import RemoteProofStore
        remote = RemoteProofStore("http://127.0.0.1:9")
        remote.record_outcomes([self._entry()])  # swallowed
        assert remote.ledger_entry("d1", "p1") is None


class TestTopExplainCli:
    def test_wedged_heuristic_flags_alive_but_stuck_workers(self):
        from repro.cli import _wedged_workers
        fleet = [
            {"worker_id": "ok", "jobs_done": 4, "busy_seconds": 4.0,
             "heartbeat_age_seconds": 1.0, "current_job": "j1",
             "job_age_seconds": 5.0, "lease_remaining_seconds": 14.0},
            {"worker_id": "stuck", "jobs_done": 4, "busy_seconds": 4.0,
             "heartbeat_age_seconds": 1.0, "current_job": "j2",
             "job_age_seconds": 400.0, "lease_remaining_seconds": 14.0},
            {"worker_id": "dead", "jobs_done": 4, "busy_seconds": 4.0,
             "heartbeat_age_seconds": 120.0, "current_job": "j3",
             "job_age_seconds": 400.0, "lease_remaining_seconds": -105.0},
            {"worker_id": "idle", "jobs_done": 0, "busy_seconds": 0.0,
             "heartbeat_age_seconds": 1.0, "current_job": None,
             "job_age_seconds": None, "lease_remaining_seconds": None},
        ]
        flagged = _wedged_workers(fleet)
        # Median per-job solve is 1s; the threshold floors at the
        # worker's lease horizon (beat age + remaining = 15s).  Only
        # "stuck" has a live lease AND is over it.
        assert [(w["worker_id"], t) for w, t in flagged] == \
            [("stuck", 15.0)]
        assert _wedged_workers(fleet[-1:]) == []

    def test_status_flags_and_journals_a_wedged_worker(self, tmp_path,
                                                       capsys):
        import time

        from repro.dist import Heartbeat
        queue = WorkQueue.open(tmp_path / "cache")
        queue.enqueue([_spec("a"), _spec("b")])
        for worker_id in ("w-ok", "w-stuck"):
            lease = queue.claim(worker_id, lease_seconds=30)
            queue.heartbeat(Heartbeat(worker_id, time.time(),
                                      lease.spec.job_id), lease_seconds=30)
        # A fleet median of 1s per job; w-stuck's claim is 400s old.
        queue._conn.execute(
            "UPDATE workers SET jobs_done = 4, busy_seconds = 4.0")
        queue._conn.execute(
            "UPDATE jobs SET updated = ? WHERE worker_id = 'w-stuck'",
            (time.time() - 400,))
        queue.close()
        assert main(["status", "--backend", str(tmp_path / "cache"),
                     "--events", str(tmp_path / "events")]) == 0
        out = capsys.readouterr().out
        wedged = [line for line in out.splitlines() if "WEDGED?" in line]
        assert len(wedged) == 1 and "w-stuck" in wedged[0]
        journal.shutdown()
        records = [r for r in journal.load(tmp_path / "events")
                   if r["kind"] == "worker_wedged"]
        assert len(records) == 1
        assert records[0]["worker"] == "w-stuck"
        assert records[0]["threshold_seconds"] == pytest.approx(30.0)

    def test_worker_snapshot_reports_leases(self, tmp_path):
        queue = WorkQueue.open(tmp_path)
        queue.enqueue([_spec("a")])
        assert queue.claim("w1", lease_seconds=30) is not None
        (snap,) = queue.worker_snapshot()
        # The claim registered w1; its pid is on the journal's
        # worker_start record, not in the queue.
        assert snap["worker_id"] == "w1" and "pid" not in snap
        assert snap["current_job"] == "a"
        assert snap["job_age_seconds"] >= 0
        assert snap["lease_remaining_seconds"] > 0
        queue.close()

    def test_explain_reconstructs_every_property(self, tmp_path,
                                                 capsys):
        from repro.designs import get_design
        run_campaign(designs=["updown_counter"], max_k=3,
                     cache_dir=tmp_path / "cache",
                     events_dir=tmp_path / "events")
        for spec in get_design("updown_counter").properties:
            assert main(["explain", "updown_counter", spec.name,
                         "--backend", str(tmp_path / "cache"),
                         "--events", str(tmp_path / "events")]) == 0
            out = capsys.readouterr().out
            assert f"updown_counter.{spec.name}:" in out
            assert "provenance:" in out and "winner:" in out
            assert "journal" in out
            # Span records print with their duration, next to the
            # point records of the same property.
            assert " check_start: " in out
            assert re.search(r" check \(\d+\.\d{3}s\): ", out)

    def test_explain_answers_for_a_verify_verdict(self, tmp_path, capsys):
        """``verify --backend`` lands its verdicts in the same ledger a
        campaign writes, so ``explain`` tells their story too."""
        assert main(["verify", "updown_counter",
                     "--backend", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["explain", "updown_counter", "upper_bound",
                     "--backend", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "updown_counter.upper_bound: proven" in out
        assert "provenance: engine" in out and "winner: k_induction" in out

    def test_explain_missing_entry_fails_cleanly(self, tmp_path,
                                                 capsys):
        assert main(["explain", "ghost", "p",
                     "--backend", str(tmp_path)]) == 1
        assert "no ledger entry" in capsys.readouterr().err


class TestTraceReportArtifacts:
    def _event(self, span_id, parent, kind, ts=0.0, dur=1.0,
               **extra):
        return {"ts": ts, "kind": kind, "host": "h", "pid": 1,
                "trace_id": "t", "parent_id": parent,
                "span_id": span_id, "dur": dur, **extra}

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
                 self._event("b", "a", "job", ts=0.5, dur=1.0,
                             host="w", pid=2, worker="w1")]
        html = render_html(spans, title='trace <"x">')
        assert html.count('<div class="lane">') == 2   # one per process
        assert "h:1" in html and "w:2 (w1)" in html    # worker annotated
        assert "trace &lt;&quot;x&quot;&gt;" in html
        assert "2.000s wall, 2 spans" in html
        assert render_html([], title="empty").count("no spans") == 1

    def test_cli_writes_folded_and_html_artifacts(self, tmp_path,
                                                  capsys):
        from scripts import trace_report
        trace = tmp_path / "journal-h-1.jsonl"
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
        trace = tmp_path / "journal-h-1.jsonl"
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
                   specs=("bmc",), priority=0.0)


def _design_specs(design_name: str):
    from repro.designs import get_design
    from repro.dist import JobSpec

    design = get_design(design_name)
    race = ("k_induction(max_k=3)", "bmc")
    return [JobSpec(job_id=f"{design_name}::{spec.name}",
                    design=design_name, property_name=spec.name,
                    specs=race, priority=float(-i))
            for i, spec in enumerate(design.properties)]
