"""Persistent on-disk proof store: the campaign subsystem's memory.

One SQLite file holds two tables:

* ``results`` — every :class:`~repro.mc.result.CheckResult` ever
  produced, keyed by the same content fingerprints
  :func:`~repro.mc.cache.query_key` computes, with the full record
  (``ProofStats``, counterexample traces) pickled alongside queryable
  columns.  :class:`ProofStore` implements the
  :class:`~repro.mc.cache.CacheBacking` protocol, so plugging it into a
  :class:`~repro.mc.cache.ResultCache` yields a two-tier cache — memory
  LRU in front, this store behind — and unchanged
  (system, property, lemma-set, strategy) queries are never re-proven
  across process restarts.

* ``ledger`` — the per-property *effort ledger*: one
  :class:`~repro.campaign.report.CampaignRow` per (design, property),
  holding the full story of its current verdict — winning strategy and
  its wall time, verdict provenance (engine / store / seeded), and a
  JSON record of every strategy raced with its per-slot effort.
  Campaigns and ``verify --backend`` batches upsert it
  (:meth:`ProofStore.record_outcomes`), ``repro-verify explain`` reads
  it back, and its walls (:meth:`ProofStore.expected_walls`) order the
  next campaign's pool longest-expected-first.  A row answered from
  the cache carries the wall of the solve that produced it.

Cache-tier contract (every :class:`~repro.dist.backend.StoreBackend`
implementation honors it): **the store degrades, it never raises into
a proof**.  A corrupt database file is moved aside and a cold store
opened in its place; if even that fails the store runs in-memory for
the process lifetime.  Unreadable pickled payloads are dropped and
reported as misses.  The network-served variant
(:class:`~repro.dist.remote.RemoteProofStore`, fronting this class via
``repro-verify serve``) extends the same contract across the wire: an
unreachable service reads as a miss, never as an error.  Verification
is therefore always *correct* with no store at all — the store only
decides how much work is repeated.
"""

from __future__ import annotations

import json
import pickle
import sqlite3
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from repro.campaign.report import CampaignRow
from repro.mc.result import CheckResult
from repro.mc.strategy import StrategyError, resolve_strategy, spec_name

#: Bump on any incompatible change to the tables or the pickle payload
#: layout; mismatched stores are wiped and rebuilt (they are caches).
#: v2: CheckResult.invariant + ProofStats restarts/learned_* fields —
#: pre-PDR payloads would unpickle without them and break the cache's
#: dataclasses.replace copies.
#: v3: the per-property effort ledger table.
#: v4: result keys are Merkle digests (``mc/cache.py``); rows keyed by
#: the old S-expression hashes could only ever miss.
#: v5: the ledger is the one verdict table (``family`` column, no
#: ``fallback``); the ``history`` table is gone.
SCHEMA_VERSION = 5

#: Keys per ``IN (...)`` clause of ``load_many``: under SQLite's
#: historical 999 host-parameter limit.
_KEY_CHUNK = 500

#: SQLite's own wait-for-writer window (ms) before it reports "database
#: is locked"; generous because parallel campaign workers all write here.
BUSY_TIMEOUT_MS = 5000

_LOCK_RETRIES = 6
_LOCK_BACKOFF = 0.02        # seconds; grows linearly per attempt


def _is_lock_error(exc: sqlite3.Error) -> bool:
    text = str(exc).lower()
    return "locked" in text or "busy" in text


def _with_lock_retry(operation):
    """Run one SQLite operation, riding out writer-lock collisions.

    WAL mode plus ``busy_timeout`` already absorbs most contention; this
    retry loop covers the residual ``database is locked`` errors SQLite
    still surfaces under heavy multi-process write bursts (e.g. when a
    checkpoint collides with a writer).  Non-lock errors propagate to
    the caller's usual degrade-don't-raise handling.
    """
    for attempt in range(_LOCK_RETRIES):
        try:
            return operation()
        except sqlite3.OperationalError as exc:
            if not _is_lock_error(exc) or attempt == _LOCK_RETRIES - 1:
                raise
            time.sleep(_LOCK_BACKOFF * (attempt + 1))

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    key          TEXT PRIMARY KEY,
    property     TEXT NOT NULL,
    status       TEXT NOT NULL,
    k            INTEGER NOT NULL,
    wall_seconds REAL NOT NULL,
    created      REAL NOT NULL,
    payload      BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS ledger (
    design       TEXT NOT NULL,
    property     TEXT NOT NULL,
    family       TEXT NOT NULL,
    status       TEXT NOT NULL,
    strategy     TEXT NOT NULL,
    provenance   TEXT NOT NULL,
    from_cache   INTEGER NOT NULL,
    worker       TEXT NOT NULL,
    wall_seconds REAL NOT NULL,
    k            INTEGER NOT NULL,
    attempts     TEXT NOT NULL,
    recorded     REAL NOT NULL,
    PRIMARY KEY (design, property)
);
"""


def verdict_provenance(strategy: str, from_cache: bool) -> str:
    """Classify where a verdict came from, for the effort ledger.

    * ``"store"`` — answered from the proof store / result cache
      (nothing was solved in this run);
    * ``"seeded"`` — a strategy that loads seed lemmas won the race
      (its resolved options give ``seeds`` or set ``seed_static``, as
      ``pdr_seeded`` does): lemmas mined from the design (or passed
      as explicit seeds) helped, with no LLM in the loop;
    * ``"engine"`` — a plain engine solved it right here.
    """
    if from_cache:
        return "store"
    try:
        _strategy, options = resolve_strategy(strategy)
    except StrategyError:      # not a spec (a poisoned job's is "")
        return "engine"
    if options.get("seeds") or options.get("seed_static"):
        return "seeded"
    return "engine"


@dataclass
class StrategyStats:
    """Mined per-(family, strategy) aggregate (see ``strategy_stats``)."""

    family: str
    strategy: str
    attempts: int = 0          # ledger verdicts this strategy gave
    wins: int = 0              # of which conclusive (PROVEN/VIOLATED)
    median_wall: float = 0.0   # of those verdicts' solve walls

    @property
    def win_rate(self) -> float:
        return self.wins / self.attempts if self.attempts else 0.0


class ProofStore:
    """SQLite-backed persistent proof store (see module docstring).

    Thread-safe behind one lock; safe to share between the scheduler
    thread and cache readers.  Multi-process sharing works at the file
    level (WAL journaling when available) — each process keeps its own
    connection.

    The :class:`~repro.dist.backend.StoreBackend` methods are the
    store's interface and its wire surface.  The per-item forms beside
    them (``record``, ``record_ledger``, ``expected_wall``,
    ``strategy_stats``, ``property_stats``) are off both: nothing in
    the package calls them, and they remain only because the
    end-to-end benchmark's tracer patches them by name
    (``tests/test_bench_surface.py`` fails if one goes).  Each reads
    or writes the ledger.  ``store_many`` is off the wire as well: the
    work queue calls it in the process that holds the store.
    """

    FILENAME = "proofs.sqlite"

    def __init__(self, path: str | Path | None):
        """Open (creating or recovering as needed) the store at ``path``.

        ``None`` opens a process-lifetime in-memory store — useful for
        campaigns run without ``--backend`` and for tests.
        """
        self.path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._conn = self._connect()

    @classmethod
    def open(cls, cache_dir: str | Path) -> "ProofStore":
        """The store inside ``cache_dir`` (created if missing)."""
        directory = Path(cache_dir)
        directory.mkdir(parents=True, exist_ok=True)
        return cls(directory / cls.FILENAME)

    @classmethod
    def in_memory(cls) -> "ProofStore":
        return cls(None)

    # ------------------------------------------------------------------
    # Connection management / recovery
    # ------------------------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        if self.path is None:
            conn = sqlite3.connect(":memory:", check_same_thread=False)
            self._init_schema(conn)
            return conn
        try:
            return self._open_file()
        except sqlite3.Error:
            self._quarantine_corrupt_file()
            try:
                return self._open_file()
            except sqlite3.Error:
                # Unwritable/broken filesystem: degrade to in-memory so
                # the campaign still runs (just without persistence).
                self.path = None
                conn = sqlite3.connect(":memory:",
                                       check_same_thread=False)
                self._init_schema(conn)
                return conn

    def _open_file(self) -> sqlite3.Connection:
        conn = sqlite3.connect(str(self.path), check_same_thread=False)
        try:
            # WAL lets parallel workers read while one writes; the busy
            # timeout makes writers queue instead of failing instantly.
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
        except sqlite3.Error:
            pass  # journaling is an optimization, not a requirement
        self._init_schema(conn)
        return conn

    def _quarantine_corrupt_file(self) -> None:
        try:
            self.path.replace(self.path.with_suffix(".corrupt"))
        except OSError:
            try:
                self.path.unlink()
            except OSError:
                pass

    @staticmethod
    def _init_schema(conn: sqlite3.Connection) -> None:
        version = conn.execute("PRAGMA user_version").fetchone()[0]
        if version not in (0, SCHEMA_VERSION):
            # Older/newer layout: this is a cache, so wipe and rebuild.
            conn.executescript(
                "DROP TABLE IF EXISTS results;"
                "DROP TABLE IF EXISTS history;"    # v4 and older
                "DROP TABLE IF EXISTS ledger;")
        conn.executescript(_SCHEMA)
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
        conn.commit()
        # Probe every table now so a valid-but-foreign SQLite file (a
        # table named `results` with other columns) fails here, inside
        # the recovery path, rather than on first load/store.
        conn.execute("SELECT key, payload FROM results LIMIT 1")
        conn.execute("SELECT family, strategy, provenance, attempts "
                     "FROM ledger LIMIT 1")

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    # ------------------------------------------------------------------
    # CacheBacking protocol: the disk tier behind ResultCache
    # ------------------------------------------------------------------

    def load(self, key: str) -> CheckResult | None:
        return self.load_many([key]).get(key)

    def load_many(self, keys: list[str]) -> dict[str, CheckResult]:
        """The stored results among ``keys`` (found keys only), in one
        pass over the table however many keys there are."""
        keys = list(keys)
        rows: list[tuple[str, bytes]] = []
        with self._lock:
            try:
                for at in range(0, len(keys), _KEY_CHUNK):
                    chunk = keys[at:at + _KEY_CHUNK]
                    marks = ",".join("?" * len(chunk))
                    rows += _with_lock_retry(lambda: self._conn.execute(
                        f"SELECT key, payload FROM results "
                        f"WHERE key IN ({marks})", chunk).fetchall())
            except sqlite3.Error:
                return {}
        found: dict[str, CheckResult] = {}
        for key, payload in rows:
            try:
                result = pickle.loads(payload)
            except Exception:
                self._delete(key)  # unreadable payload: drop, report a miss
                continue
            if isinstance(result, CheckResult):
                found[key] = result
        return found

    def store(self, key: str, result: CheckResult) -> None:
        self.store_many({key: result})

    def store_many(self, results: Mapping[str, CheckResult]) -> None:
        """Write several results in one transaction.  Off the wire: a
        distributed job's results arrive with its report, and the
        queue that takes the report writes them here."""
        now = time.time()
        rows = []
        for key, result in results.items():
            try:
                payload = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
            except Exception:
                continue  # an unpicklable result stays memory-tier only
            rows.append((key, result.property_name, result.status.value,
                         result.k, result.stats.wall_seconds, now,
                         payload))
        if not rows:
            return

        def write() -> None:
            try:
                self._conn.executemany(
                    "INSERT OR REPLACE INTO results "
                    "(key, property, status, k, wall_seconds, created, "
                    " payload) VALUES (?, ?, ?, ?, ?, ?, ?)", rows)
                self._conn.commit()
            except sqlite3.Error:
                self._conn.rollback()
                raise

        with self._lock:
            try:
                _with_lock_retry(write)
            except sqlite3.Error:
                pass

    def _delete(self, key: str) -> None:
        def drop() -> None:
            self._conn.execute("DELETE FROM results WHERE key = ?",
                               (key,))
            self._conn.commit()

        with self._lock:
            try:
                _with_lock_retry(drop)
            except sqlite3.Error:
                pass

    def __len__(self) -> int:
        with self._lock:
            try:
                return _with_lock_retry(lambda: self._conn.execute(
                    "SELECT COUNT(*) FROM results").fetchone()[0])
            except sqlite3.Error:
                return 0

    # ------------------------------------------------------------------
    # Effort ledger: one row per property, the story of its verdict
    # ------------------------------------------------------------------

    _LEDGER_COLUMNS = ("design", "property", "family", "status",
                       "strategy", "provenance", "from_cache", "worker",
                       "wall_seconds", "k", "attempts")

    def record(self, *, design: str, family: str, property_name: str,
               strategy: str, status: str, wall_seconds: float,
               from_cache: bool) -> None:
        """Upsert one verdict given field by field."""
        self.record_outcomes([CampaignRow(
            design=design, family=family, property_name=property_name,
            strategy=strategy, status=status, wall_seconds=wall_seconds,
            k=0, from_cache=from_cache)])

    def record_ledger(self, row: CampaignRow) -> None:
        """Upsert one verdict."""
        self.record_outcomes([row])

    def record_outcomes(self, rows: list[CampaignRow]) -> None:
        """Upsert one ledger row per (design, property), all in one
        transaction: a campaign's (or batch's) rows appear together or
        not at all.  The ledger answers "why is the verdict what it is
        *now*"; ``attempts`` is the race's per-slot record list (see
        :func:`repro.mc.portfolio.attempt_record`), stored as JSON so
        it stays queryable without unpickling.
        """
        now = time.time()
        values = []
        for row in rows:
            try:
                attempts = json.dumps(row.attempts,
                                      separators=(",", ":"), default=str)
            except (TypeError, ValueError):
                attempts = "[]"
            values.append(
                (row.design, row.property_name, row.family, row.status,
                 row.strategy, row.provenance, int(bool(row.from_cache)),
                 row.worker, float(row.wall_seconds), int(row.k),
                 attempts, now))
        if not values:
            return

        def write() -> None:
            try:
                self._conn.executemany(
                    "INSERT OR REPLACE INTO ledger (design, property, "
                    "family, status, strategy, provenance, from_cache, "
                    "worker, wall_seconds, k, attempts, recorded) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)", values)
                self._conn.commit()
            except sqlite3.Error:
                self._conn.rollback()   # all of the batch or none of it
                raise

        with self._lock:
            try:
                _with_lock_retry(write)
            except sqlite3.Error:
                pass

    def ledger_entry(self, design: str,
                     property_name: str) -> dict | None:
        """The effort-ledger row for one property, or ``None``."""
        columns = self._LEDGER_COLUMNS + ("recorded",)
        rows = self._ledger_rows(", ".join(columns),
                                 " WHERE design = ? AND property = ?",
                                 (design, property_name))
        if not rows:
            return None
        entry = dict(zip(columns, rows[0]))
        entry["from_cache"] = bool(entry["from_cache"])
        try:
            entry["attempts"] = json.loads(entry["attempts"])
        except (TypeError, ValueError):
            entry["attempts"] = []
        return entry

    def _ledger_rows(self, columns: str, where: str = "",
                     params: tuple = ()) -> list[tuple]:
        with self._lock:
            try:
                return _with_lock_retry(lambda: self._conn.execute(
                    f"SELECT {columns} FROM ledger{where}",
                    params).fetchall())
            except sqlite3.Error:
                return []

    def strategy_stats(self) -> dict[tuple[str, str], StrategyStats]:
        """Per-(family, strategy) win rates and median wall time over
        the ledger's current verdicts."""
        stats: dict[tuple[str, str], StrategyStats] = {}
        walls: dict[tuple[str, str], list[float]] = {}
        for family, strategy, status, wall in self._ledger_rows(
                "family, strategy, status, wall_seconds"):
            key = (family, spec_name(strategy))
            entry = stats.setdefault(key, StrategyStats(*key))
            entry.attempts += 1
            entry.wins += status in ("proven", "violated")
            walls.setdefault(key, []).append(wall)
        for key, samples in walls.items():
            stats[key].median_wall = statistics.median(samples)
        return stats

    def property_stats(self
                       ) -> dict[tuple[str, str], dict[str, "StrategyStats"]]:
        """Per-(design, property) view of the ledger: strategy ->
        stats of the one verdict it holds."""
        stats: dict[tuple[str, str], dict[str, StrategyStats]] = {}
        for design, prop, strategy, status, wall in self._ledger_rows(
                "design, property, strategy, status, wall_seconds"):
            name = spec_name(strategy)
            stats.setdefault((design, prop), {})[name] = StrategyStats(
                "", name, attempts=1,
                wins=int(status in ("proven", "violated")),
                median_wall=wall)
        return stats

    def expected_wall(self, design: str,
                      property_name: str) -> float | None:
        """The wall the ledger's verdict for one (design, property)
        took to solve.

        ``None`` when the ledger has no row — the scheduler falls back
        to a structural size heuristic.
        """
        return self.expected_walls(design).get((design, property_name))

    def expected_walls(self, design: str | None = None
                       ) -> dict[tuple[str, str], float]:
        """The solve wall per (design, property) in the ledger — every
        design's, or one's — in one read."""
        where, params = ("", ()) if design is None \
            else (" WHERE design = ?", (design,))
        return {(name, prop): wall for name, prop, wall in self._ledger_rows(
            "design, property, wall_seconds", where, params)}
