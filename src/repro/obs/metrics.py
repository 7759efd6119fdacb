"""Per-service metrics registry with Prometheus text exposition.

Three instrument kinds, mirroring the Prometheus data model:

* :class:`Counter` — monotonically increasing totals (requests served,
  leases requeued);
* :class:`Gauge` — point-in-time levels (queue depth, uptime);
* :class:`Histogram` — distributions over fixed bucket boundaries
  (request latency).

A :class:`MetricsRegistry` belongs to whoever serves it: a
``ProofService`` owns one and shares it with the :class:`WorkQueue` it
serves, and ``/metrics`` renders exactly that registry.  There is no
process-wide default: a verdict's effort travels with the verdict
(``ProofStats``, attempt logs, the ledger, journal ``check`` records),
not through a side channel.  Registration is idempotent, so a family
asked for twice by name is the same family.  ``registry.render()``
emits the text exposition format (version 0.0.4) that Prometheus and
its ecosystem scrape.
"""

from __future__ import annotations

import bisect
import os
import threading
import weakref
from typing import Iterable

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

# Default latency boundaries: 1ms to ~1min, roughly x4 apart — wide
# enough to cover both sub-ms queue ops and slow wire calls.
DEFAULT_BUCKETS = (0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10.0, 60.0)


def _validate_name(name: str) -> None:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ValueError(f"invalid metric name: {name!r}")


def _escape_label(value: str) -> str:
    """Escape one label value per the Prometheus text exposition spec.

    Exactly three characters are escaped — backslash, double quote,
    and newline — and backslash MUST go first: escaping it after the
    others would double the backslashes those escapes just introduced
    (``"`` -> ``\\"`` -> ``\\\\"``), which scrapers then mis-parse.
    Audited and pinned by the exposition edge-case tests; do not
    reorder.
    """
    return value.replace("\\", "\\\\").replace('"', '\\"') \
                .replace("\n", "\\n")


def _format_value(value: float) -> str:
    # Render integral floats as integers: `7` not `7.0`.
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _labelset(labelnames: tuple[str, ...],
              labelvalues: tuple[str, ...]) -> str:
    if not labelnames:
        return ""
    pairs = ",".join(f'{k}="{_escape_label(str(v))}"'
                     for k, v in zip(labelnames, labelvalues))
    return "{" + pairs + "}"


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount


class Histogram:
    """Observations bucketed over fixed boundaries."""

    __slots__ = ("_lock", "boundaries", "counts", "sum", "count")

    def __init__(self, lock: threading.Lock,
                 boundaries: tuple[float, ...]):
        self._lock = lock
        self.boundaries = boundaries
        self.counts = [0] * (len(boundaries) + 1)  # last is +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        idx = bisect.bisect_left(self.boundaries, value)
        with self._lock:
            self.counts[idx] += 1
            self.sum += value
            self.count += 1


class Family:
    """One named metric plus its per-labelset children."""

    def __init__(self, name: str, help_text: str, kind: str,
                 labelnames: tuple[str, ...],
                 buckets: tuple[float, ...] | None = None):
        _validate_name(name)
        for label in labelnames:
            _validate_name(label)
        self.name = name
        self.help = help_text
        self.kind = kind
        self.labelnames = labelnames
        self.buckets = buckets
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], Counter | Gauge | Histogram]
        self._children = {}
        if not labelnames:
            self._default = self._make_child()
            self._children[()] = self._default

    def _make_child(self):
        if self.kind == "counter":
            return Counter(self._lock)
        if self.kind == "gauge":
            return Gauge(self._lock)
        return Histogram(self._lock, self.buckets or DEFAULT_BUCKETS)

    def labels(self, *values: str):
        """The child for one labelset, created on first use."""
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {values!r}")
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._make_child())
        return child

    # Unlabelled families proxy the instrument API straight through so
    # call sites read `FAMILY.inc()` rather than `FAMILY.labels().inc()`.
    def inc(self, amount: float = 1.0) -> None:
        self._default.inc(amount)

    def set(self, value: float) -> None:
        self._default.set(value)

    def dec(self, amount: float = 1.0) -> None:
        self._default.dec(amount)

    def observe(self, value: float) -> None:
        self._default.observe(value)

    @property
    def value(self) -> float:
        return self._default.value

    def samples(self) -> Iterable[tuple[str, str, float]]:
        """(sample name, rendered labels, value) triples, render order.

        Histogram buckets are CUMULATIVE, as the exposition format
        requires: each ``le`` bucket counts every observation at or
        below its bound, and the ``+Inf`` bucket always equals the
        family's total ``_count`` — even when every observation
        overflowed the finite bounds.  Audited and pinned by the
        exposition edge-case tests: a scraper computes per-bucket
        rates by subtracting adjacent buckets, so emitting raw
        (non-cumulative) counts here would corrupt every histogram
        quantile downstream.
        """
        with self._lock:
            children = sorted(self._children.items())
        for key, child in children:
            labelset = _labelset(self.labelnames, key)
            if self.kind in ("counter", "gauge"):
                yield self.name, labelset, child.value
                continue
            cumulative = 0
            assert isinstance(child, Histogram)
            for bound, count in zip(child.boundaries, child.counts):
                cumulative += count
                le = _labelset(self.labelnames + ("le",),
                               key + (_format_value(bound),))
                yield f"{self.name}_bucket", le, cumulative
            inf = _labelset(self.labelnames + ("le",), key + ("+Inf",))
            yield f"{self.name}_bucket", inf, child.count
            yield f"{self.name}_sum", labelset, child.sum
            yield f"{self.name}_count", labelset, child.count


class MetricsRegistry:
    """The metric families one service renders."""

    def __init__(self):
        self._lock = threading.Lock()
        self._families: dict[str, Family] = {}
        _REGISTRIES.add(self)

    def _register(self, name: str, help_text: str, kind: str,
                  labels: tuple[str, ...],
                  buckets: tuple[float, ...] | None = None) -> Family:
        labels = tuple(labels)
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.labelnames != labels:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{family.kind}{family.labelnames}, cannot "
                        f"re-register as {kind}{labels}")
                return family
            family = Family(name, help_text, kind, labels, buckets)
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str = "",
                labels: tuple[str, ...] = ()) -> Family:
        return self._register(name, help_text, "counter", labels)

    def gauge(self, name: str, help_text: str = "",
              labels: tuple[str, ...] = ()) -> Family:
        return self._register(name, help_text, "gauge", labels)

    def histogram(self, name: str, help_text: str = "",
                  labels: tuple[str, ...] = (),
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Family:
        return self._register(name, help_text, "histogram", labels,
                              tuple(buckets))

    def render(self) -> str:
        """Prometheus text exposition (format version 0.0.4)."""
        lines: list[str] = []
        with self._lock:
            families = sorted(self._families.values(),
                              key=lambda f: f.name)
        for family in families:
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for sample, labelset, value in family.samples():
                lines.append(f"{sample}{labelset} "
                             f"{_format_value(value)}")
        return "\n".join(lines) + "\n"


_REGISTRIES: weakref.WeakSet[MetricsRegistry] = weakref.WeakSet()


def _renew_locks_after_fork() -> None:
    # A lock another thread of the parent held at the fork (a service
    # handler mid-increment) would stay held in the child forever.
    for registry in list(_REGISTRIES):
        registry._lock = threading.Lock()
        for family in registry._families.values():
            family._lock = threading.Lock()
            for child in family._children.values():
                child._lock = family._lock


os.register_at_fork(after_in_child=_renew_locks_after_fork)
