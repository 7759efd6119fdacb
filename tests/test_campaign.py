"""Campaign subsystem: proof store, two-tier cache, campaign scheduling."""

import sqlite3
from dataclasses import replace

import pytest

from repro.campaign import (CampaignRow, CampaignScheduler, ProofStore,
                            race_specs)
from repro.designs import get_design, select_designs
from repro.flow.session import VerificationSession, run_campaign
from repro.ir.system import Signal
from repro.mc.cache import ResultCache
from repro.mc.portfolio import DEFAULT_PORTFOLIO
from repro.mc.result import CheckResult, ProofStats, Status
from repro.trace.trace import Trace, TraceKind


def _result(name: str = "prop", status: Status = Status.PROVEN,
            with_traces: bool = True) -> CheckResult:
    stats = ProofStats(wall_seconds=1.25, sat_queries=7, conflicts=42,
                       decisions=99, propagations=1234, clauses=56,
                       variables=78, max_depth=4)
    cex = step = None
    if with_traces:
        signals = [Signal("count", 4, "state"), Signal("en", 1, "input")]
        steps = [{"count": 3, "en": 1}, {"count": 4, "en": 0}]
        cex = Trace(signals, steps, kind=TraceKind.BMC_CEX,
                    property_name=name, note="from bmc")
        step = Trace(signals, list(steps), kind=TraceKind.STEP_CEX,
                     property_name=name)
    return CheckResult(name, status, k=3, cex=cex, step_cex=step,
                       stats=stats, detail="round-trip me")


class TestProofStore:
    def test_round_trip_full_record(self, tmp_path):
        store = ProofStore.open(tmp_path)
        original = _result(status=Status.VIOLATED)
        store.store("k1", original)
        loaded = store.load("k1")
        assert loaded is not None
        assert loaded.property_name == original.property_name
        assert loaded.status is Status.VIOLATED
        assert loaded.k == 3
        assert loaded.detail == "round-trip me"
        assert loaded.stats == original.stats
        assert loaded.cex is not None and loaded.step_cex is not None
        assert loaded.cex.kind is TraceKind.BMC_CEX
        assert loaded.cex.steps == original.cex.steps
        assert loaded.cex.signal("count").width == 4
        assert loaded.step_cex.kind is TraceKind.STEP_CEX

    def test_cold_start_hit_after_reopen(self, tmp_path):
        first = ProofStore.open(tmp_path)
        first.store("k1", _result())
        first.close()
        # A fresh handle simulates a process restart.
        second = ProofStore.open(tmp_path)
        assert len(second) == 1
        loaded = second.load("k1")
        assert loaded is not None and loaded.status is Status.PROVEN

    def test_missing_nested_directory_is_created(self, tmp_path):
        store = ProofStore.open(tmp_path / "deep" / "cache")
        store.store("k1", _result(with_traces=False))
        assert (tmp_path / "deep" / "cache" / ProofStore.FILENAME).exists()

    def test_corrupt_file_falls_back_to_cold_store(self, tmp_path):
        path = tmp_path / ProofStore.FILENAME
        path.write_bytes(b"this is not a sqlite database at all")
        store = ProofStore.open(tmp_path)
        assert store.load("anything") is None
        store.store("k1", _result(with_traces=False))
        assert store.load("k1") is not None
        # The broken file was quarantined, not silently destroyed.
        assert path.with_suffix(".corrupt").exists()

    def test_foreign_sqlite_file_is_recovered(self, tmp_path):
        path = tmp_path / ProofStore.FILENAME
        conn = sqlite3.connect(str(path))
        conn.execute("CREATE TABLE results (other TEXT)")
        conn.commit()
        conn.close()
        store = ProofStore.open(tmp_path)
        store.store("k1", _result(with_traces=False))
        assert store.load("k1") is not None

    def test_unreadable_payload_reports_miss_and_drops_row(self, tmp_path):
        store = ProofStore.open(tmp_path)
        store.store("k1", _result(with_traces=False))
        store._conn.execute(
            "UPDATE results SET payload = ? WHERE key = 'k1'",
            (b"\x80garbage",))
        store._conn.commit()
        assert store.load("k1") is None
        assert len(store) == 0

    def test_load_many_returns_only_found_keys(self, tmp_path):
        store = ProofStore.open(tmp_path)
        violated = _result("bad", Status.VIOLATED)
        store.store("k1", violated)
        store.store("k2", _result("good", with_traces=False))
        found = store.load_many(["k1", "absent", "k2", "k1"])
        assert sorted(found) == ["k1", "k2"]
        assert found["k1"].cex.steps == violated.cex.steps
        assert found["k1"].stats == violated.stats
        assert found["k2"].status is Status.PROVEN
        assert store.load_many([]) == {}
        assert store.load_many(["absent"]) == {}

    def test_load_many_chunks_past_the_host_parameter_limit(self, tmp_path):
        store = ProofStore.open(tmp_path)
        for i in (0, 499, 500, 999, 1000, 2499):    # chunk edges
            store.store(f"key{i}", _result(f"p{i}", with_traces=False))
        keys = [f"key{i}" for i in range(2500)]
        found = store.load_many(keys)
        assert sorted(found) == sorted(
            f"key{i}" for i in (0, 499, 500, 999, 1000, 2499))
        assert found["key2499"].property_name == "p2499"

    def test_load_many_drops_unreadable_payloads_only(self, tmp_path):
        store = ProofStore.open(tmp_path)
        store.store("good", _result(with_traces=False))
        store.store("torn", _result(with_traces=False))
        store._conn.execute(
            "UPDATE results SET payload = ? WHERE key = 'torn'",
            (b"\x80garbage",))
        store._conn.commit()
        assert sorted(store.load_many(["good", "torn"])) == ["good"]
        assert len(store) == 1      # the torn row is gone, as with load

    @staticmethod
    def _campaign_rows():
        return [CampaignRow(design="d1", family="fam", property_name=name,
                            status="proven",
                            strategy="k_induction(max_k=3)",
                            wall_seconds=wall, k=2, from_cache=cached,
                            provenance="store" if cached else "engine",
                            attempts=[{"strategy": "bmc", "k": 1}])
                for name, wall, cached in (("p1", 0.3, False),
                                           ("p2", 0.7, True))]

    def test_record_outcomes_reads_back_like_the_per_row_calls(
            self, tmp_path):
        rows = self._campaign_rows()
        per_row = ProofStore.open(tmp_path / "a")
        for row in rows:
            per_row.record_ledger(row)
        batched = ProofStore.open(tmp_path / "b")
        batched.record_outcomes(rows)

        def ledger_view(store):
            entries = [store.ledger_entry("d1", name)
                       for name in ("p1", "p2", "p3")]
            return [entry and {k: v for k, v in entry.items()
                               if k != "recorded"} for entry in entries]

        for store in (per_row, batched):
            assert store.expected_wall("d1", "p1") == pytest.approx(0.3)
            # A row answered from the cache carries its solve's wall.
            assert store.expected_wall("d1", "p2") == pytest.approx(0.7)
            assert store.expected_wall("d1", "p3") is None
            assert store.expected_walls() == {
                ("d1", "p1"): pytest.approx(0.3),
                ("d1", "p2"): pytest.approx(0.7)}
            assert store.expected_walls("elsewhere") == {}
            assert ledger_view(store)[0] == {
                "design": "d1", "property": "p1", "family": "fam",
                "status": "proven", "strategy": "k_induction(max_k=3)",
                "provenance": "engine", "from_cache": False,
                "worker": "", "wall_seconds": pytest.approx(0.3), "k": 2,
                "attempts": [{"strategy": "bmc", "k": 1}]}
            assert ledger_view(store)[2] is None
        assert ledger_view(batched) == ledger_view(per_row)
        assert batched.strategy_stats() == per_row.strategy_stats()
        assert batched.property_stats() == per_row.property_stats()

    def test_record_outcomes_is_one_transaction(self, tmp_path):
        """A campaign's rows appear together or not at all, and one
        call is one commit."""
        store = ProofStore.open(tmp_path)
        rows = self._campaign_rows()
        poisoned = rows + [replace(rows[0], design=None)]   # NOT NULL
        store.record_outcomes(poisoned)                      # no raise
        assert store.ledger_entry("d1", "p1") is None

        commits = []
        store._conn.set_trace_callback(
            lambda sql: commits.append(sql) if sql == "COMMIT" else None)
        store.record_outcomes(rows)
        store._conn.set_trace_callback(None)
        assert commits == ["COMMIT"]
        assert all(store.ledger_entry("d1", name) is not None
                   for name in ("p1", "p2"))
        store.record_outcomes([])                            # nothing to do
        assert len(store.expected_walls()) == 2

    def test_record_outcomes_upserts_one_row_per_property(self, tmp_path):
        store = ProofStore.open(tmp_path)
        first, _ = self._campaign_rows()
        store.record_outcomes([first])
        store.record_outcomes([replace(first, status="violated",
                                       wall_seconds=0.9, worker="w2")])
        assert store.expected_walls() == {("d1", "p1"): pytest.approx(0.9)}
        entry = store.ledger_entry("d1", "p1")
        assert (entry["status"], entry["worker"]) == ("violated", "w2")
        assert store._conn.execute(
            "SELECT COUNT(*) FROM ledger").fetchone()[0] == 1

    def test_schema_version_mismatch_rebuilds(self, tmp_path):
        store = ProofStore.open(tmp_path)
        store.store("k1", _result(with_traces=False))
        store._conn.execute("PRAGMA user_version = 99")
        store._conn.commit()
        store.close()
        reopened = ProofStore.open(tmp_path)
        assert len(reopened) == 0
        assert reopened.load("k1") is None

    def test_store_keyed_by_the_old_fingerprints_is_rebuilt(self, tmp_path):
        # v3 rows are keyed by S-expression hashes no query produces
        # any more: they could only ever miss, so they are dropped.
        from repro.campaign.store import SCHEMA_VERSION
        assert SCHEMA_VERSION == 5
        store = ProofStore.open(tmp_path)
        store.store("old-style-key", _result(with_traces=False))
        store._conn.execute("PRAGMA user_version = 3")
        store._conn.commit()
        store.close()
        assert len(ProofStore.open(tmp_path)) == 0

    def test_v4_store_with_a_history_table_is_rebuilt(self, tmp_path):
        conn = sqlite3.connect(tmp_path / ProofStore.FILENAME)
        conn.executescript(
            "CREATE TABLE results (key TEXT PRIMARY KEY, payload BLOB);"
            "INSERT INTO results VALUES ('k1', x'00');"
            "CREATE TABLE history (id INTEGER PRIMARY KEY, design TEXT);"
            "CREATE INDEX history_design ON history (design);"
            "CREATE TABLE ledger (design TEXT, fallback INTEGER);"
            "PRAGMA user_version = 4;")
        conn.close()
        store = ProofStore.open(tmp_path)
        assert len(store) == 0
        assert _tables(store) == ["ledger", "results"]
        first, _ = self._campaign_rows()
        store.record_outcomes([first])
        assert store.ledger_entry("d1", "p1")["family"] == "fam"

    def test_ledger_mining(self, tmp_path):
        store = ProofStore.open(tmp_path)
        for prop, wall, cached in (("p1", 0.2, False), ("p2", 0.4, False),
                                   ("p3", 0.6, True)):
            store.record(design="d1", family="fam", property_name=prop,
                         strategy="k_induction(max_k=3)", status="proven",
                         wall_seconds=wall, from_cache=cached)
        stats = store.strategy_stats()[("fam", "k_induction")]
        assert (stats.attempts, stats.wins) == (3, 3)
        assert stats.median_wall == pytest.approx(0.4)
        assert store.expected_wall("d1", "p1") == pytest.approx(0.2)
        assert store.expected_wall("d1", "unseen") is None
        per_prop = store.property_stats()[("d1", "p3")]["k_induction"]
        assert (per_prop.wins, per_prop.median_wall) == \
            (1, pytest.approx(0.6))


def _tables(store: ProofStore) -> list[str]:
    return sorted(name for (name,) in store._conn.execute(
        "SELECT name FROM sqlite_master WHERE type = 'table'"))


class TestTwoTierCache:
    def test_disk_hit_then_memory_promotion(self, tmp_path):
        key = "query-key"
        writer = ResultCache(backing=ProofStore.open(tmp_path))
        writer.put(key, _result())
        # Fresh process: empty memory tier, same disk store.
        reader = ResultCache(backing=ProofStore.open(tmp_path))
        first = reader.get(key)
        assert first is not None
        assert (reader.stats.hits, reader.stats.disk_hits) == (1, 1)
        second = reader.get(key)
        assert second is not None
        # Promoted into the LRU: the second hit is memory-tier.
        assert (reader.stats.hits, reader.stats.disk_hits) == (2, 1)
        assert reader.stats.memory_hits == 1
        assert "from disk" in reader.stats.one_line()

    def test_clear_drops_memory_but_not_disk(self, tmp_path):
        store = ProofStore.open(tmp_path)
        cache = ResultCache(backing=store)
        cache.put("k", _result(with_traces=False))
        cache.clear()
        assert len(cache) == 0
        assert cache.get("k") is not None
        assert cache.stats.disk_hits == 1

    def test_cached_copies_do_not_alias_disk_record(self, tmp_path):
        store = ProofStore.open(tmp_path)
        cache = ResultCache(backing=store)
        cache.put("k", _result(with_traces=False))
        fresh = ResultCache(backing=store)
        hit = fresh.get("k")
        hit.detail += "; caller scribble"
        again = fresh.get("k")
        assert "caller scribble" not in again.detail

    def test_prefetch_is_the_disk_tier_of_the_following_gets(self,
                                                             tmp_path):
        store = ProofStore.open(tmp_path)
        ResultCache(backing=store).put("stored", _result())
        loads = []
        real_load = store.load
        store.load = lambda key: loads.append(key) or real_load(key)

        reader = ResultCache(backing=store)
        prefetched = reader.prefetch(["stored", "absent", "stored"])
        assert sorted(prefetched) == ["stored"]
        # Nothing is booked or promoted until a get consumes it.
        assert (reader.stats.hits, reader.stats.misses) == (0, 0)
        assert "stored" not in reader and len(reader) == 0

        hit = reader.get("stored", prefetched)
        assert hit is not None and hit.cex is not None
        assert (reader.stats.hits, reader.stats.disk_hits) == (1, 1)
        assert "stored" in reader                  # promoted, like load
        assert reader.get("absent", prefetched) is None
        assert reader.stats.misses == 1
        assert loads == []          # the batch answered; nobody re-asked
        # The negative answer lives in the mapping, not in the cache.
        assert reader.get("absent") is None
        assert loads == ["absent"]
        # A key already in memory is not fetched again.
        assert reader.prefetch(["stored"]) == {}

    def test_prefetch_degrades_to_nothing_found(self):
        class Broken:
            def load(self, key): raise OSError("down")
            def load_many(self, keys): raise OSError("down")
            def store(self, key, result): raise OSError("down")

        cache = ResultCache(backing=Broken())
        assert cache.prefetch(["k"]) == {}
        assert cache.get("k", {}) is None
        assert ResultCache().prefetch(["k"]) == {}    # no backing at all


class TestRaceSpecs:
    def test_spec_name(self):
        from repro.mc.strategy import spec_name
        assert spec_name("bmc(bound=6)") == "bmc"
        assert spec_name("k_induction") == "k_induction"
        assert spec_name(" pdr_seeded ( max_frames=4 ) ") == "pdr_seeded"
        assert spec_name("none") == "none"      # justice outcomes

    def test_bakes_depths(self):
        assert race_specs(("k_induction", "bmc"), max_k=3, bound=9) == \
            ("k_induction(max_k=3)", "bmc(bound=9)")

    def test_inline_options_win(self):
        assert race_specs(("bmc(bound=4)", "k_induction(max_k=2)"),
                          max_k=3, bound=9) == \
            ("bmc(bound=4)", "k_induction(max_k=2)")

    def test_no_depths_is_identity(self):
        assert race_specs(("k_induction", "bmc")) == ("k_induction", "bmc")

    def test_pdr_is_passed_by_max_k(self):
        """--max-k maps onto k-induction but passes PDR by (its depth
        is frames, not unrolling steps)."""
        assert race_specs(("k_induction", "pdr", "bmc"),
                          max_k=3, bound=12) == \
            ("k_induction(max_k=3)", "pdr", "bmc(bound=12)")

    def test_registry_defaults_are_spec_bound(self):
        assert race_specs(("pdr_seeded",), max_k=3) == \
            ("pdr_seeded(seed_static=True)",)

    @pytest.mark.parametrize("spec", ["bmc(6)", "not_a_strategy",
                                      "k_induction_sp"])
    def test_malformed_specs_raise_instead_of_dropping_args(self, spec):
        from repro.mc.strategy import StrategyError

        with pytest.raises(StrategyError):
            race_specs((spec,), bound=6)

    def test_verify_all_and_campaign_race_the_same_specs(self):
        """One design through ``verify_all`` and through a one-design
        campaign: every property's attempt log names the same specs."""
        def logged(rows):
            return {name: [row["strategy"] for row in log]
                    for name, log in rows}

        batch = VerificationSession(get_design("updown_counter")) \
            .verify_all(max_k=3)
        report = run_campaign(designs=["updown_counter"], max_k=3)
        session_logs = logged((o.property_name, o.attempt_log)
                              for o in batch.outcomes)
        assert session_logs == logged((r.property_name, r.attempts)
                                      for r in report.rows)
        assert session_logs and all(
            log == ["k_induction(max_k=3)", "bmc(bound=20)"]
            for log in session_logs.values())


CAMPAIGN_DESIGNS = ["updown_counter", "gray_counter", "sync_counters_bug"]


class TestCampaign:
    def test_warm_rerun_is_incremental(self, tmp_path):
        """The acceptance criterion: a repeated campaign in a fresh
        process answers every unchanged query from the disk store and
        reports the same verdicts."""
        cold = run_campaign(designs=CAMPAIGN_DESIGNS,
                            cache_dir=tmp_path, max_k=3)
        assert cold.mismatches == 0
        assert cold.proved == 3 and cold.falsified == 1
        # Fresh store handle = fresh process: no memory tier carryover.
        warm = run_campaign(designs=CAMPAIGN_DESIGNS,
                            cache_dir=tmp_path, max_k=3)
        assert warm.disk_hit_rate >= 0.9
        assert all(r.from_cache for r in warm.rows)
        assert warm.cache.misses == 0
        assert {(r.property_name, r.status) for r in warm.rows} == \
            {(r.property_name, r.status) for r in cold.rows}

    def test_warm_race_stops_at_first_conclusive_slot(self, tmp_path):
        """A store-settled race stops at its first conclusive slot: the
        slots after the winner are skipped, not looked up, so a warm
        rerun's lookups are exactly the slots up to each winner."""
        run_campaign(designs=CAMPAIGN_DESIGNS, cache_dir=tmp_path, max_k=3)
        warm = run_campaign(designs=CAMPAIGN_DESIGNS, cache_dir=tmp_path,
                            max_k=3)
        consulted = 0
        for row in warm.rows:
            won = [a["winner"] for a in row.attempts].index(True)
            assert [a["origin"] for a in row.attempts[:won + 1]] == \
                ["disk"] * (won + 1)
            assert all(a["status"] == "unknown"
                       for a in row.attempts[:won])
            assert all(a["origin"] == "skipped"
                       for a in row.attempts[won + 1:])
            consulted += won + 1
        assert warm.cache.misses == 0
        assert warm.cache.hits == warm.cache.disk_hits == consulted
        assert consulted < sum(len(row.attempts) for row in warm.rows)

    def test_parallel_campaign_matches_sequential(self, tmp_path):
        sequential = run_campaign(designs=CAMPAIGN_DESIGNS,
                                  cache_dir=tmp_path / "a", max_k=3)
        parallel = run_campaign(designs=CAMPAIGN_DESIGNS,
                                cache_dir=tmp_path / "b", max_k=3,
                                jobs=2)
        assert {(r.property_name, r.status) for r in parallel.rows} == \
            {(r.property_name, r.status) for r in sequential.rows}

    def test_every_row_races_the_full_portfolio(self, tmp_path):
        """The ledger orders the pool, never prunes a race.  A store that
        says k-induction settled the seeded-bug property (it cannot
        within max_k=3; only BMC sees the divergence) still races the
        whole portfolio, and BMC finds the bug in one pass; once the
        store holds the campaign's own verdicts, every row of a rerun
        still races each slot of the full portfolio, in order."""
        store = ProofStore.open(tmp_path)
        store.record(design="sync_counters_bug", family="counters",
                     property_name="counters_equal",
                     strategy="k_induction", status="proven",
                     wall_seconds=0.1, from_cache=False)
        scheduler = CampaignScheduler(
            select_designs(["sync_counters_bug"]), store, max_k=3)
        race = race_specs(DEFAULT_PORTFOLIO, max_k=3,
                          bound=scheduler.bmc_bound)
        [job] = scheduler.build_jobs()
        assert job.task.strategies == race
        [row] = scheduler.run().rows
        assert row.status == "violated"
        assert len(row.attempts) == 2
        for _ in range(2):
            report = run_campaign(designs=CAMPAIGN_DESIGNS,
                                  cache_dir=tmp_path, max_k=3)
            for row in report.rows:
                assert [a["strategy"] for a in row.attempts] == list(race)
        assert set(store.expected_walls()) == \
            {(r.design, r.property_name) for r in report.rows}
        assert store.ledger_entry("sync_counters_bug",
                                  "counters_equal")["status"] == "violated"

    def test_warm_campaigns_keep_one_ledger_row_per_property(
            self, tmp_path):
        """One cold and three warm passes: the ledger holds each
        property's current verdict once, and it is the store's only
        table beside the results."""
        for _ in range(4):
            report = run_campaign(designs=CAMPAIGN_DESIGNS,
                                  cache_dir=tmp_path, max_k=3)
        assert report.provenance_counts == {"store": len(report.rows)}
        store = ProofStore.open(tmp_path)
        assert _tables(store) == ["ledger", "results"]
        assert store._conn.execute(
            "SELECT COUNT(*) FROM ledger").fetchone()[0] == len(report.rows)
        for row in report.rows:
            entry = store.ledger_entry(row.design, row.property_name)
            assert (entry["family"], entry["status"],
                    entry["provenance"]) == \
                (row.family, row.status, "store")

    def test_campaign_reads_the_ledger_once(self, tmp_path, monkeypatch):
        """The pool's order is a campaign's one ledger read; the
        per-strategy aggregates are never scanned."""
        walls = ProofStore.expected_walls
        reads: list[tuple] = []
        scans: list[str] = []

        def counted(self, *args):
            reads.append(args)
            return walls(self, *args)

        monkeypatch.setattr(ProofStore, "expected_walls", counted)
        for name in ("strategy_stats", "property_stats"):
            monkeypatch.setattr(ProofStore, name,
                                lambda self, name=name: scans.append(name))
        for _ in range(2):
            run_campaign(designs=CAMPAIGN_DESIGNS, cache_dir=tmp_path,
                         max_k=3)
        assert reads == [(), ()]
        assert scans == []

    def test_report_names_no_strategy_selection(self, tmp_path):
        """Neither the JSON nor the text report carries a selection mode,
        a dispatched-versus-full job count or a fallback count."""
        report = run_campaign(designs=["sync_counters_bug"],
                              cache_dir=tmp_path, max_k=3)
        payload = report.to_dict()
        assert not {"adaptive", "dispatched_jobs", "full_portfolio_jobs",
                    "fallback_reruns"} & set(payload)
        assert all("adaptive_fallback" not in row
                   for row in payload["results"])
        assert report.fallback_reruns == 0
        text = report.to_text()
        for word in ("adaptive", "dispatched", "fallback", "full portfolio"):
            assert word not in text

    def test_longest_expected_first_uses_history(self, tmp_path):
        store = ProofStore.open(tmp_path)
        scheduler = CampaignScheduler(
            select_designs(["updown_counter"]), store, max_k=3)
        store.record(design="updown_counter", family="counters",
                     property_name="never_top", strategy="k_induction",
                     status="proven", wall_seconds=500.0,
                     from_cache=False)
        store.record(design="updown_counter", family="counters",
                     property_name="upper_bound",
                     strategy="k_induction", status="proven",
                     wall_seconds=0.001, from_cache=False)
        pool = scheduler.build_jobs()
        assert [j.prop.name for j in pool] == ["never_top",
                                               "upper_bound"]

    def test_report_json_shape(self, tmp_path):
        import json

        report = run_campaign(designs=["updown_counter"],
                              cache_dir=tmp_path, max_k=3)
        payload = json.loads(report.to_json())
        assert payload["designs"] == ["updown_counter"]
        assert payload["proved"] == 2
        assert set(payload["cache"]) >= {"hits", "disk_hits",
                                         "memory_hits", "misses",
                                         "disk_hit_rate"}
        assert all({"design", "property", "status", "expect",
                    "strategy", "from_cache"} <= set(r)
                   for r in payload["results"])
        assert "campaign" in report.to_text()

    def test_registry_subset_selection(self):
        assert [d.name for d in
                select_designs(["lfsr16", "fifo_ctrl", "lfsr16"])] == \
            ["lfsr16", "fifo_ctrl"]
        assert len(select_designs(None)) == len(select_designs([]))


class TestSessionStoreWiring:
    def test_single_design_run_shares_campaign_store(self, tmp_path):
        design = get_design("updown_counter")
        first = VerificationSession(design, backend=tmp_path)
        first.verify_all(max_k=3)
        assert set(first.store.expected_walls()) == {
            ("updown_counter", "upper_bound"),
            ("updown_counter", "never_top")}
        # A later campaign warm-starts from the single-design run.
        report = run_campaign(designs=["updown_counter"],
                              cache_dir=tmp_path, max_k=3)
        assert report.cache.disk_hits > 0
        assert all(r.from_cache for r in report.rows)

    def test_campaign_results_serve_single_design_runs(self, tmp_path):
        run_campaign(designs=["updown_counter"], cache_dir=tmp_path,
                     max_k=3)
        session = VerificationSession(get_design("updown_counter"),
                                      backend=tmp_path)
        batch = session.verify_all(max_k=3)
        assert batch.cache_stats.disk_hits > 0
        assert batch.cache_stats.misses == 0

    def test_store_sharing_with_heterogeneous_depths(self, tmp_path):
        """Cache keys bake each property's own max_k, so single-design
        runs and campaigns share store entries even when a design mixes
        induction depths (rr_arbiter: max_k 3/2/2)."""
        design = get_design("rr_arbiter")
        assert len({p.max_k for p in design.properties}) > 1
        VerificationSession(design, backend=tmp_path).verify_all()
        report = run_campaign(designs=["rr_arbiter"],
                              cache_dir=tmp_path)
        assert report.cache.misses == 0
        assert report.disk_hit_rate == 1.0
