"""Content-keyed cache of model-checking results.

The paper's flows re-run the formal tool constantly over *identical*
queries: a repeated Houdini run re-asks the same conjunction, the
repair loop re-proves the target between LLM calls, and benchmark sweeps
repeat whole configurations.  A query is fully determined by

* the transition system's content (inputs/states/init/next/defines/
  constraints — structurally, not by object identity),
* the property's ``bad`` expression and warm-up offset,
* the assumed lemma set (order-insensitive),
* the strategy spec and its options,

so results can be reused whenever that fingerprint recurs — the solver is
deterministic.  Keys are SHA-256 over the Merkle digests of the
expressions involved (:func:`repro.ir.expr.structural_digest`, memoised
per interned node, so keying costs O(signals) per query and O(new
nodes) per process — never a tree-sized rendering of a shared DAG);
values are returned as shallow copies so callers that annotate
``detail`` or accumulate stats never corrupt the cached record.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import (Iterable, Mapping, NamedTuple, Protocol,
                    runtime_checkable)

from repro.ir import expr as E
from repro.ir.system import TransitionSystem
from repro.mc.property import SafetyProperty
from repro.mc.result import CheckResult
from repro.mc.strategy import (CheckTask, canonical_options,
                               resolve_strategy, run_check_task)
from repro.obs import journal as _journal


def expr_fingerprint(root: E.Expr) -> str:
    """Canonical structural fingerprint of one expression DAG: the
    hex of its Merkle digest, memoised per interned node (see
    :func:`repro.ir.expr.structural_digest`)."""
    return E.structural_digest(root).hex()


def system_fingerprint(system: TransitionSystem) -> str:
    """Digest of a transition system's *content*.

    Excludes the system's name: a cone-of-influence reduction of the same
    design for the same property yields the same fingerprint no matter
    which session built it.  Recomputed from the system on every call
    (a ``TransitionSystem`` is mutable, so nothing is remembered on
    it); what makes that cheap is that each root expression's digest is
    already known — this walks signals, not expression nodes.
    """
    digest = E.structural_digest
    h = hashlib.sha256()
    for name, v in sorted(system.inputs.items()):
        h.update(f"i:{name}:{v.width};".encode())
    for name, v in sorted(system.states.items()):
        h.update(f"s:{name}:{v.width};".encode())
    for section, mapping in (("init", system.init), ("next", system.next),
                             ("def", system.defines)):
        for name, e in sorted(mapping.items()):
            h.update(f"{section}:{name}=".encode())
            h.update(digest(e))
    h.update(b"c:")
    for c in sorted(digest(c) for c in system.constraints):
        h.update(c)
    return h.hexdigest()


def query_key(system: TransitionSystem, prop: SafetyProperty,
              strategy: str, options: Mapping,
              lemmas: list[tuple[E.Expr, int]] | None = None) -> str:
    """The cache key for one fully-specified check invocation."""
    digest = E.structural_digest
    h = hashlib.sha256()
    h.update(system_fingerprint(system).encode())
    h.update(b"|p:")
    h.update(digest(prop.bad))
    h.update(f":{prop.valid_from}".encode())
    h.update(b"|l:")
    for sig in sorted(digest(g) + f"@{vf};".encode()
                      for g, vf in (lemmas or [])):
        h.update(sig)
    h.update(b"|s:")
    h.update(strategy.encode())
    for k in sorted(options):
        h.update(f":{k}={options[k]!r}".encode())
    return h.hexdigest()


@runtime_checkable
class CacheBacking(Protocol):
    """A persistent second tier behind :class:`ResultCache`.

    ``load`` answers memory misses — one at a time, or for a whole
    batch of keys in one ``load_many`` round trip (found keys only);
    ``put`` writes through every stored result.  Implementations must
    tolerate concurrent callers and must never raise on routine
    failures (a broken backing degrades the cache to memory-only, it
    does not break proving) — the canonical implementation is
    :class:`repro.campaign.store.ProofStore`.
    """

    def load(self, key: str) -> CheckResult | None: ...

    def load_many(self, keys: list[str]) -> dict[str, CheckResult]: ...

    def store(self, key: str, result: CheckResult) -> None: ...


@dataclass
class CacheStats:
    """Hit/miss/store counters (the benchmark's headline numbers).

    ``disk_hits`` is the subset of ``hits`` answered by the persistent
    backing tier rather than the in-memory LRU; ``hits - disk_hits`` is
    therefore the memory-tier hit count.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    disk_hits: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def memory_hits(self) -> int:
        return self.hits - self.disk_hits

    def one_line(self) -> str:
        disk = f" [{self.disk_hits} from disk]" if self.disk_hits else ""
        return (f"cache: {self.hits} hits / {self.misses} misses "
                f"({self.hit_rate:.0%}), {self.stores} stored, "
                f"{self.evictions} evicted{disk}")

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """The traffic between an ``earlier`` snapshot and this one.

        Counters are monotone (``clear()`` counts its drops as
        evictions instead of resetting anything), but snapshots taken
        around an externally reset stats object must still not report
        negative traffic — differences clamp at zero.
        """
        return CacheStats(
            hits=max(0, self.hits - earlier.hits),
            misses=max(0, self.misses - earlier.misses),
            stores=max(0, self.stores - earlier.stores),
            evictions=max(0, self.evictions - earlier.evictions),
            disk_hits=max(0, self.disk_hits - earlier.disk_hits))


class ResultCache:
    """Thread-safe LRU cache of :class:`CheckResult` keyed by query content.

    Shared freely: between the strategies racing inside one portfolio
    batch, between Houdini rounds, between flow iterations, and across a
    whole :class:`~repro.flow.session.VerificationSession`.

    With a ``backing`` (any :class:`CacheBacking`, typically the campaign
    subsystem's SQLite :class:`~repro.campaign.store.ProofStore`) the
    cache becomes two-tier: memory misses fall through to the backing,
    backing hits are promoted into the LRU and counted as ``disk_hits``,
    and every ``put`` writes through — so a fresh process warm-starts
    from whatever earlier runs proved.  A batch of lookups may
    :meth:`prefetch` its keys first: one backing round trip whose
    answer stands in for the per-key ``load`` beneath the ``get``
    calls it is handed to — a latency optimisation under ``get``,
    never a second source of truth.
    """

    def __init__(self, max_entries: int = 4096,
                 backing: CacheBacking | None = None):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.backing = backing
        self.stats = CacheStats()
        self._entries: OrderedDict[str, CheckResult] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def _insert(self, key: str, result: CheckResult) -> None:
        if key not in self._entries and \
                len(self._entries) >= self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        self._entries[key] = result
        self._entries.move_to_end(key)

    def __contains__(self, key: str) -> bool:
        """Is ``key`` in the memory tier right now?"""
        return key in self._entries

    def prefetch(self, keys: Iterable[str]) -> dict[str, CheckResult]:
        """Ask the backing once for every key the memory tier lacks.

        The answer is handed to the following ``get(key, prefetched)``
        calls as their disk tier, so a batch of lookups costs one
        backing round trip instead of one each.  Nothing is promoted,
        counted or remembered here — a prefetched result becomes a hit
        only when a ``get`` consumes it, and the negative answers live
        exactly as long as the caller keeps the mapping.
        """
        if self.backing is None:
            return {}
        with self._lock:
            wanted = [key for key in dict.fromkeys(keys)
                      if key not in self._entries]
        try:
            return self.backing.load_many(wanted) if wanted else {}
        except Exception:
            return {}

    def get(self, key: str,
            prefetched: Mapping[str, CheckResult] | None = None
            ) -> CheckResult | None:
        """The result stored under ``key``, or ``None`` (a miss).

        With ``prefetched`` (what :meth:`prefetch` returned for a batch
        that included ``key``) the disk tier is read from that mapping
        instead of asking the backing again; tiers, counters and the
        promotion into memory are the same either way.
        """
        with self._lock:
            result = self._entries.get(key)
            if result is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                # Shallow per-field copy: a caller that annotates its
                # result's `detail` must not change what another caller
                # (or the cache) sees, nor share a stats object.
                return replace(result, stats=replace(result.stats))
            if self.backing is not None:
                if prefetched is not None:
                    loaded = prefetched.get(key)
                else:
                    try:
                        loaded = self.backing.load(key)
                    except Exception:
                        loaded = None
                if loaded is not None:
                    # Promote to the memory tier; not a `store` (nothing
                    # new was proven) but evictions it causes are real.
                    # The caller gets its own copy too: a backing may
                    # return a retained object, and disk-tier hits must
                    # obey the same no-aliasing contract as memory hits.
                    self._insert(key, replace(loaded,
                                              stats=replace(loaded.stats)))
                    self.stats.hits += 1
                    self.stats.disk_hits += 1
                    return replace(loaded, stats=replace(loaded.stats))
            self.stats.misses += 1
            return None

    def put(self, key: str, result: CheckResult) -> None:
        with self._lock:
            self._insert(key, replace(result, stats=replace(result.stats)))
            self.stats.stores += 1
            if self.backing is not None:
                try:
                    self.backing.store(key, result)
                except Exception:
                    pass  # a broken disk tier must never break proving

    def clear(self) -> None:
        """Drop the memory tier (the backing, if any, is untouched).

        Cleared entries count as evictions so the stats stay monotone
        and a ``since()`` window spanning a ``clear()`` stays honest.
        """
        with self._lock:
            self.stats.evictions += len(self._entries)
            self._entries.clear()


class Lookup(NamedTuple):
    """What :func:`lookup` learned about one task's query."""

    strategy: str                   # registry name: the journal label
    key: str | None                 # None: no cache, or not cacheable
    hit: CheckResult | None = None
    tier: str | None = None         # "memory" | "disk", on a hit


def key_task(cache: ResultCache | None, task: CheckTask) -> Lookup:
    """Key ``task``'s query without asking anyone for it — the only
    place a query is keyed.  ``key`` stays ``None`` with no cache or an
    uncacheable strategy (one whose class sets ``cacheable = False``:
    its verdict depends on something the key cannot fingerprint), which
    nothing may then answer or store."""
    strategy, options = resolve_strategy(task.strategy, task.options)
    if cache is None or not getattr(strategy, "cacheable", True):
        return Lookup(strategy.name, None)
    return Lookup(strategy.name, query_key(
        task.system, task.prop, strategy.name,
        canonical_options(strategy, options), task.lemmas))


def lookup(cache: ResultCache | None, task: CheckTask,
           keyed: Lookup | None = None,
           prefetched: Mapping[str, CheckResult] | None = None
           ) -> Lookup:
    """Key ``task``'s query and ask ``cache`` for it.

    The only place a hit's tier is decided, for :func:`run_cached` and
    every portfolio slot alike.  A hit is booked here (a ``check``
    point record naming the tier: a hit has no duration); a miss hands
    its key back for :func:`settle`.  A batch caller passes the slot's
    :func:`key_task` result and the batch's
    :meth:`ResultCache.prefetch` answer, so the query is keyed once and
    the disk tier is not asked again.
    """
    found = keyed if keyed is not None else key_task(cache, task)
    if found.key is None:
        return found
    disk_before = cache.stats.disk_hits
    hit = cache.get(found.key, prefetched)
    if hit is None:
        return found
    tier = "disk" if cache.stats.disk_hits > disk_before else "memory"
    _journal.emit("check", design=task.system.name,
                  property=task.prop.name, strategy=found.strategy,
                  origin="cache", tier=tier, status=hit.status.value,
                  k=hit.k)
    return found._replace(hit=hit, tier=tier)


def settle(cache: ResultCache | None, found: Lookup,
           result: CheckResult) -> None:
    """Book a solver answer to the query ``found`` missed on.

    Runs in the process that asked — for a pooled slot that is the
    parent, not the child that solved — so the result lands in the
    shared cache.
    """
    if found.key is not None:
        cache.put(found.key, result)


def run_cached(strategy_spec: str, system: TransitionSystem,
               prop: SafetyProperty, options: Mapping,
               lemmas: list[tuple[E.Expr, int]] | None = None,
               cache: ResultCache | None = None) -> CheckResult:
    """One check through the registry, consulting ``cache`` if given:
    key -> :func:`lookup` -> ``run_check_task`` -> :func:`settle`, the
    same seam a portfolio race walks slot by slot."""
    task = CheckTask((), system, prop, strategy_spec, dict(options),
                     list(lemmas or []))
    found = lookup(cache, task)
    if found.hit is not None:
        return found.hit
    result = run_check_task(task)
    settle(cache, found, result)
    return result
