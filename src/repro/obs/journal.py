"""The record stream: typed JSONL records over plain files.

One journal per top-level operation (a campaign).  Every process that
takes part appends to its own file, ``journal-<host>-<pid>.jsonl``,
inside one shared directory — no cross-process locking, no server —
and :func:`load` reads the directory back as one ``ts``-ordered list.

There is one record shape.  Every record carries ``ts`` / ``kind`` /
``host`` / ``pid`` / ``trace_id`` / ``parent_id``; everything else is
a flat, kind-specific field (docs/observability.md has the catalog)::

    {"ts": 1754650000.123456, "kind": "check", "host": "w3",
     "pid": 17744, "trace_id": "854ea578656841b0",
     "parent_id": "c0ffee0123456789", "span_id": "0123456789abcdef",
     "dur": 0.012, "design": "updown_counter", "property":
     "upper_bound", "strategy": "bmc", "status": "proven",
     "origin": "solver"}

:func:`emit` writes a *point* record: a fact with no extent (a lease
expired, a check started).  :func:`span` writes a record that
additionally has a ``span_id`` and a ``dur``: it is written once, when
the body returns, so a span's record *is* its finish event.  ``ts`` is
when the record's subject began; ``parent_id`` is the span that was
current then (``None`` at the root), so the records with a ``span_id``
form one tree and every point record hangs off a node of it.

Propagation uses the seams the distributed stack already has:

* same process / same thread — a :mod:`contextvars` variable carries
  the current span, so nested :func:`span` calls parent automatically
  (and correctly across the coordinator's worker threads);
* forked processes (a coordinator's workers, ``fork``-started pool
  children) — the child inherits the active journal, which reopens
  its file under the child's pid on the first record; the journal's
  lock is held across the fork, so no record is half-written in an
  inherited buffer and the child never starts with the lock taken;
* individual jobs — a :class:`TraceContext` rides on ``JobSpec`` /
  ``CheckTask`` records (it pickles; the receiving side parents its
  span on what :func:`adopt` returns), which is how
  ``spawn``-started pool children and workers nobody spawned join.

Everything is fail-soft: with no journal configured :func:`emit` and
:func:`span` cost one module-global load; an I/O error silently
disables the sink rather than fail verification.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import os
import socket
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

__all__ = [
    "Journal",
    "TraceContext",
    "active",
    "adopt",
    "configure",
    "current_context",
    "emit",
    "load",
    "shutdown",
    "span",
]

def _new_id() -> str:
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class TraceContext:
    """A picklable pointer into a live journal.

    Stamped onto dist-protocol records (``JobSpec``, ``CheckTask``) so
    the process that executes the work can join the stream and parent
    its spans under the span that dispatched it.
    """

    trace_id: str
    span_id: str
    events_dir: str


class Journal:
    """Appends one trace's records to a per-process JSONL file."""

    def __init__(self, events_dir: str | os.PathLike,
                 trace_id: str | None = None):
        self.events_dir = Path(events_dir)
        self.events_dir.mkdir(parents=True, exist_ok=True)
        self.trace_id = trace_id or _new_id()
        self.host = socket.gethostname()
        self._lock = threading.Lock()
        self._fh = None
        self._pid: int | None = None
        self._broken = False

    def _handle(self):
        # Reopened on pid change so forked pool workers never share a
        # file offset with their parent.
        pid = os.getpid()
        if self._fh is None or self._pid != pid:
            path = self.events_dir / f"journal-{self.host}-{pid}.jsonl"
            self._fh = open(path, "a", encoding="utf-8")
            self._pid = pid
        return self._fh

    def write(self, ts: float, kind: str, parent_id: str | None,
              fields: dict) -> None:
        """Append one record; the first failure silences the sink."""
        if self._broken:
            return
        record = {"ts": round(ts, 6), "kind": kind, "host": self.host,
                  "pid": os.getpid(), "trace_id": self.trace_id,
                  "parent_id": parent_id}
        record.update(fields)
        try:
            line = json.dumps(record, separators=(",", ":"), default=str)
            with self._lock:
                fh = self._handle()
                fh.write(line + "\n")
                fh.flush()
        except (OSError, ValueError, TypeError):
            self._broken = True

    def close(self) -> None:
        with self._lock:
            if self._fh is not None and self._pid == os.getpid():
                with contextlib.suppress(OSError):
                    self._fh.close()
            self._fh = None
            self._pid = None


_journal: Journal | None = None
_current_span: contextvars.ContextVar[str | None] = \
    contextvars.ContextVar("repro_current_span", default=None)


def configure(events_dir: str | os.PathLike,
              trace_id: str | None = None) -> Journal:
    """Install a process-wide journal (replacing any previous one)."""
    global _journal
    if _journal is not None:
        _journal.close()
    _journal = Journal(events_dir, trace_id)
    return _journal


def active() -> Journal | None:
    return _journal


_forking: Journal | None = None  # its lock is held across a fork


def _before_fork() -> None:
    global _forking
    _forking = _journal
    if _forking is not None:
        _forking._lock.acquire()


def _after_fork() -> None:
    if _forking is not None:
        _forking._lock.release()


os.register_at_fork(before=_before_fork, after_in_parent=_after_fork,
                    after_in_child=_after_fork)


def shutdown() -> None:
    """Close and uninstall the journal (flushes are per-record)."""
    global _journal
    if _journal is not None:
        _journal.close()
    _journal = None


def current_context() -> TraceContext | None:
    """The (trace, current span) pointer, for stamping onto records."""
    journal, span_id = _journal, _current_span.get()
    if journal is None or span_id is None:
        return None
    return TraceContext(trace_id=journal.trace_id, span_id=span_id,
                        events_dir=str(journal.events_dir))


def adopt(ctx: TraceContext | None) -> str | None:
    """Ensure this process records into ``ctx``'s journal; returns the
    span id to parent under.

    Idempotent when already joined; fail-soft (returns ``None``, as for
    no context at all) when the directory is unreachable from here.
    """
    if ctx is None:
        return None
    journal = _journal
    if journal is None or journal.trace_id != ctx.trace_id:
        try:
            configure(ctx.events_dir, ctx.trace_id)
        except OSError:
            return None
    return ctx.span_id


def emit(kind: str, **fields) -> None:
    """Write one point record; no-op when no journal is configured."""
    journal = _journal
    if journal is not None:
        journal.write(time.time(), kind, _current_span.get(), fields)


class SpanHandle:
    """Yielded by :func:`span`; the body attaches result fields to
    ``fields``, and may set ``dur`` when it already timed the interval
    itself (so a number reported elsewhere and the record agree)."""

    __slots__ = ("span_id", "fields", "dur")

    def __init__(self, span_id: str, fields: dict):
        self.span_id = span_id
        self.fields = fields
        self.dur: float | None = None


@contextlib.contextmanager
def span(kind: str, parent_id: str | None = None,
         **fields) -> Iterator[SpanHandle | None]:
    """Write one record with a duration; yields ``None`` when off.

    The span becomes the current span for the duration of the body, so
    nested calls (and :func:`emit`) parent onto it.  ``parent_id``
    overrides the ambient parent — used when the logical parent lives
    in another process and arrived via a :class:`TraceContext`.  An
    exception is recorded as ``error`` and re-raised.
    """
    journal = _journal
    if journal is None:
        yield None
        return
    handle = SpanHandle(_new_id(), fields)
    parent = parent_id if parent_id is not None else _current_span.get()
    token = _current_span.set(handle.span_id)
    start_wall = time.time()
    start = time.perf_counter()
    try:
        yield handle
    except BaseException as exc:
        fields["error"] = type(exc).__name__
        raise
    finally:
        _current_span.reset(token)
        dur = handle.dur if handle.dur is not None \
            else time.perf_counter() - start
        journal.write(start_wall, kind, parent,
                      {"span_id": handle.span_id, "dur": round(dur, 6),
                       **fields})


def load(path: str | os.PathLike) -> list[dict]:
    """Every record under ``path`` (a journal directory, or one of its
    files), oldest first.

    Skips torn lines (a killed process may leave one) and files that
    are not journal files; a missing path reads as empty.
    """
    root = Path(path)
    files = sorted(root.glob("journal-*.jsonl")) if root.is_dir() \
        else [root] if root.is_file() else []
    records: list[dict] = []
    for file in files:
        try:
            text = file.read_text(encoding="utf-8")
        except OSError:
            continue
        for line in text.splitlines():
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                records.append(record)
    records.sort(key=lambda r: r.get("ts", 0.0))
    return records
