"""Result cache: keying, hit/miss accounting, flow-level reuse."""

import pickle
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.ir import expr as E
from repro.ir.system import TransitionSystem
from repro.mc.cache import (ResultCache, expr_fingerprint, query_key,
                            run_cached, system_fingerprint)
from repro.mc.engine import ProofEngine
from repro.mc.property import SafetyProperty
from repro.mc.result import Status

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def equal_prop():
    return SafetyProperty.from_invariant(
        "eq", E.eq(E.var("count1", 8), E.var("count2", 8)))


def _lemma(name1: str = "count1", name2: str = "count2"):
    return (E.eq(E.var(name1, 8), E.var(name2, 8)), 0)


class TestKeying:
    def test_same_query_same_key(self, sync_counters_system, equal_prop):
        k1 = query_key(sync_counters_system, equal_prop, "k_induction",
                       {"max_k": 5}, [])
        k2 = query_key(sync_counters_system, equal_prop, "k_induction",
                       {"max_k": 5}, [])
        assert k1 == k2

    def test_structurally_equal_systems_share_keys(self, equal_prop):
        def build(name):
            s = TransitionSystem(name)
            c1 = s.add_state("count1", 8, init=E.const(0, 8))
            c2 = s.add_state("count2", 8, init=E.const(0, 8))
            s.set_next("count1", E.add(c1, E.const(1, 8)))
            s.set_next("count2", E.add(c2, E.const(1, 8)))
            return s

        a, b = build("one"), build("two")
        assert system_fingerprint(a) == system_fingerprint(b)
        assert query_key(a, equal_prop, "bmc", {}, []) == \
            query_key(b, equal_prop, "bmc", {}, [])

    def test_options_change_key(self, sync_counters_system, equal_prop):
        base = query_key(sync_counters_system, equal_prop, "k_induction",
                         {"max_k": 5}, [])
        deeper = query_key(sync_counters_system, equal_prop,
                           "k_induction", {"max_k": 6}, [])
        assert base != deeper

    def test_lemma_set_changes_key(self, sync_counters_system,
                                   equal_prop):
        bare = query_key(sync_counters_system, equal_prop, "k_induction",
                         {}, [])
        with_lemma = query_key(sync_counters_system, equal_prop,
                               "k_induction", {}, [_lemma()])
        assert bare != with_lemma

    def test_lemma_order_does_not_change_key(self, sync_counters_system,
                                             equal_prop):
        l1, l2 = _lemma(), (E.ule(E.var("count1", 8), E.const(9, 8)), 1)
        assert query_key(sync_counters_system, equal_prop, "bmc", {},
                         [l1, l2]) == \
            query_key(sync_counters_system, equal_prop, "bmc", {},
                      [l2, l1])

    def test_property_changes_key(self, sync_counters_system, equal_prop):
        other = SafetyProperty.from_invariant(
            "bound", E.ule(E.var("count1", 8), E.const(200, 8)))
        assert query_key(sync_counters_system, equal_prop, "bmc", {},
                         []) != \
            query_key(sync_counters_system, other, "bmc", {}, [])

    def test_valid_from_changes_key(self, sync_counters_system):
        p0 = SafetyProperty.from_invariant(
            "eq", E.eq(E.var("count1", 8), E.var("count2", 8)))
        p1 = SafetyProperty.from_invariant(
            "eq", E.eq(E.var("count1", 8), E.var("count2", 8)),
            valid_from=1)
        assert query_key(sync_counters_system, p0, "bmc", {}, []) != \
            query_key(sync_counters_system, p1, "bmc", {}, [])


def _crc_chain(levels: int, width: int = 8) -> E.Expr:
    """``e = xor(x, y)``, then ``levels`` times ``e = add(xor(e, x),
    and(e, y))``: every level reads the one below twice, so the DAG is
    ``O(levels)`` nodes and its tree expansion ``O(2**levels)``."""
    x, y = E.var("x", width), E.var("y", width)
    e = E.xor(x, y)
    for _ in range(levels):
        e = E.add(E.xor(e, x), E.and_(e, y))
    return e


class TestMerkleFingerprint:
    """The key is a Merkle digest memoised per interned node: linear in
    the DAG, and still telling apart everything the rendering did."""

    def test_shared_dag_is_keyed_in_linear_time(self, equal_prop):
        # 18 levels rendered a 13.6 MB string at the parent commit; 64
        # would have needed ~2**64 characters.
        system = TransitionSystem("crc")
        system.add_input("x", 8)
        system.add_input("y", 8)
        system.add_state("count1", 8, init=E.const(0, 8))
        system.add_state("count2", 8, init=E.const(0, 8))
        system.add_define("crc", _crc_chain(64))
        started = time.perf_counter()
        key = query_key(system, equal_prop, "bmc", {}, [])
        assert time.perf_counter() - started < 0.05
        assert key == query_key(system, equal_prop, "bmc", {}, [])
        assert len(expr_fingerprint(_crc_chain(64))) == 64

    def test_fingerprint_is_structural_not_identity(self):
        assert expr_fingerprint(_crc_chain(5)) == \
            expr_fingerprint(_crc_chain(5))
        assert expr_fingerprint(_crc_chain(5)) != \
            expr_fingerprint(_crc_chain(6))

    @pytest.mark.parametrize("a, b", [
        (E.add(E.var("a", 8), E.var("b", 8)),
         E.sub(E.var("a", 8), E.var("b", 8))),            # op
        (E.sub(E.var("a", 8), E.var("b", 8)),
         E.sub(E.var("b", 8), E.var("a", 8))),            # argument order
        (E.extract(E.var("a", 8), 3, 0),
         E.extract(E.var("a", 8), 4, 1)),                 # params
        (E.const(3, 8), E.const(4, 8)),                   # const value
        (E.const(3, 8), E.const(3, 9)),                   # const width
        (E.var("a", 8), E.var("b", 8)),                   # var name
        (E.var("a", 8), E.var("a", 9)),                   # var width
    ], ids=["op", "arg-order", "params", "const-value", "const-width",
            "var-name", "var-width"])
    def test_every_node_field_reaches_the_fingerprint(self, a, b):
        assert expr_fingerprint(a) != expr_fingerprint(b)

    def test_signal_width_changes_the_key(self, equal_prop):
        def build(width):
            s = TransitionSystem("w")
            s.add_input("en", width)
            s.add_state("count1", 8, init=E.const(0, 8))
            s.add_state("count2", 8, init=E.const(0, 8))
            return s

        assert query_key(build(1), equal_prop, "bmc", {}, []) != \
            query_key(build(2), equal_prop, "bmc", {}, [])

    @pytest.mark.parametrize("mutate", [
        lambda s: s.set_next("count1", E.add(E.var("count1", 8),
                                             E.const(2, 8))),
        lambda s: s.set_init("count2", E.const(1, 8)),
        lambda s: s.add_constraint(E.ule(E.var("count1", 8),
                                         E.const(9, 8))),
        lambda s: s.add_define("d", E.not_(E.var("count1", 8))),
    ], ids=["next", "init", "constraint", "define"])
    def test_mutating_a_keyed_system_changes_its_key(
            self, sync_counters_system, equal_prop, mutate):
        # Nothing is remembered on the (mutable) system: the memo hangs
        # on immutable expression nodes only.
        before = query_key(sync_counters_system, equal_prop, "bmc", {}, [])
        mutate(sync_counters_system)
        assert query_key(sync_counters_system, equal_prop, "bmc", {},
                         []) != before

    def test_memo_is_dropped_with_the_intern_table(self):
        # In a child interpreter: clearing the table under a running
        # test session would break identity for every live expression.
        script = (
            "from repro.ir import expr as E\n"
            "from repro.mc.cache import expr_fingerprint\n"
            "e = lambda: E.add(E.var('a', 8), E.const(1, 8))\n"
            "before = expr_fingerprint(e())\n"
            "assert E._DIGESTS\n"
            "E.clear_intern_table()\n"
            "assert not E._DIGESTS\n"
            "assert expr_fingerprint(e()) == before\n")
        subprocess.run([sys.executable, "-c", script],
                       env={"PYTHONPATH": str(SRC)}, check=True)

    def test_keys_survive_a_pickle_trip_into_a_fresh_interpreter(
            self, sync_counters_system, equal_prop, tmp_path):
        sync_counters_system.add_input("x", 8)
        sync_counters_system.add_input("y", 8)
        sync_counters_system.add_define("crc", _crc_chain(12))
        lemmas = [_lemma()]
        here = query_key(sync_counters_system, equal_prop, "k_induction",
                         {"max_k": 5}, lemmas)
        blob = tmp_path / "query.pickle"
        blob.write_bytes(pickle.dumps(
            (sync_counters_system, equal_prop, lemmas)))
        script = (
            "import pickle, sys\n"
            "from repro.mc.cache import query_key\n"
            "system, prop, lemmas = pickle.load(open(sys.argv[1], 'rb'))\n"
            "print(query_key(system, prop, 'k_induction', {'max_k': 5}, "
            "lemmas))\n")
        there = subprocess.run(
            [sys.executable, "-c", script, str(blob)],
            env={"PYTHONPATH": str(SRC), "PYTHONHASHSEED": "random"},
            capture_output=True, text=True, check=True).stdout.strip()
        assert there == here


class TestCacheBehaviour:
    def test_hit_miss_counters(self, sync_counters_system, equal_prop):
        cache = ResultCache()
        r1 = run_cached("k_induction", sync_counters_system, equal_prop,
                        {"max_k": 2}, cache=cache)
        assert r1.status is Status.PROVEN
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)
        r2 = run_cached("k_induction", sync_counters_system, equal_prop,
                        {"max_k": 2}, cache=cache)
        assert r2.status is Status.PROVEN
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        assert cache.stats.stores == 1

    def test_hits_do_not_alias_the_stored_record(self,
                                                 sync_counters_system,
                                                 equal_prop):
        cache = ResultCache()
        run_cached("k_induction", sync_counters_system, equal_prop,
                   {"max_k": 2}, cache=cache)
        first = run_cached("k_induction", sync_counters_system,
                           equal_prop, {"max_k": 2}, cache=cache)
        first.detail += "; annotated by caller"
        first.stats.conflicts += 999
        second = run_cached("k_induction", sync_counters_system,
                            equal_prop, {"max_k": 2}, cache=cache)
        assert "annotated by caller" not in second.detail
        assert second.stats.conflicts == first.stats.conflicts - 999

    def test_lru_eviction(self, sync_counters_system, equal_prop):
        cache = ResultCache(max_entries=1)
        run_cached("bmc", sync_counters_system, equal_prop,
                   {"bound": 1}, cache=cache)
        run_cached("bmc", sync_counters_system, equal_prop,
                   {"bound": 2}, cache=cache)
        assert cache.stats.evictions == 1
        assert len(cache) == 1
        # bound=1 was evicted: running it again misses.
        run_cached("bmc", sync_counters_system, equal_prop,
                   {"bound": 1}, cache=cache)
        assert cache.stats.hits == 0

    def test_evictions_are_reported(self, sync_counters_system,
                                    equal_prop):
        cache = ResultCache(max_entries=1)
        run_cached("bmc", sync_counters_system, equal_prop,
                   {"bound": 1}, cache=cache)
        run_cached("bmc", sync_counters_system, equal_prop,
                   {"bound": 2}, cache=cache)
        assert "1 evicted" in cache.stats.one_line()

    def test_clear_counts_dropped_entries_as_evictions(
            self, sync_counters_system, equal_prop):
        cache = ResultCache()
        run_cached("bmc", sync_counters_system, equal_prop,
                   {"bound": 1}, cache=cache)
        run_cached("bmc", sync_counters_system, equal_prop,
                   {"bound": 2}, cache=cache)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.evictions == 2

    def test_since_spanning_a_clear_stays_consistent(
            self, sync_counters_system, equal_prop):
        from dataclasses import replace

        cache = ResultCache()
        run_cached("bmc", sync_counters_system, equal_prop,
                   {"bound": 1}, cache=cache)
        snapshot = replace(cache.stats)
        cache.clear()
        run_cached("bmc", sync_counters_system, equal_prop,
                   {"bound": 1}, cache=cache)
        window = cache.stats.since(snapshot)
        # The cleared entry shows up as an eviction and the rerun as a
        # miss + store; nothing in the window can ever be negative.
        assert window.evictions == 1
        assert (window.hits, window.misses, window.stores) == (0, 1, 1)

    def test_since_clamps_negative_drift(self):
        from repro.mc.cache import CacheStats

        earlier = CacheStats(hits=5, misses=5, stores=5, evictions=5)
        window = CacheStats(hits=1).since(earlier)
        assert (window.hits, window.misses, window.stores,
                window.evictions) == (0, 0, 0, 0)

    def test_engine_shares_cache_across_calls(self, sync_counters_system,
                                              equal_prop):
        cache = ResultCache()
        engine = ProofEngine(sync_counters_system, cache=cache)
        engine.prove(equal_prop, max_k=2)
        engine.prove(equal_prop, max_k=2)
        assert cache.stats.hits == 1


class TestHoudiniStyleReuse:
    def test_repeated_houdini_query_hits_cache(self, sync_counters_system):
        """The acceptance-criterion scenario: Houdini re-asks the same
        conjunction (same system, same lemma set) and must be answered
        from cache the second time around."""
        from repro.flow.houdini import houdini_prove

        cache = ResultCache()
        candidates = [
            SafetyProperty.from_invariant(
                "eq", E.eq(E.var("count1", 8), E.var("count2", 8))),
        ]
        first = houdini_prove(sync_counters_system, list(candidates),
                              max_k=2, bmc_bound=4, cache=cache)
        assert len(first.proven) == 1
        misses_after_first = cache.stats.misses
        assert cache.stats.hits == 0

        second = houdini_prove(sync_counters_system, list(candidates),
                               max_k=2, bmc_bound=4, cache=cache)
        assert len(second.proven) == 1
        assert cache.stats.hits > 0, \
            "repeated Houdini run must be served from the result cache"
        assert cache.stats.misses == misses_after_first
