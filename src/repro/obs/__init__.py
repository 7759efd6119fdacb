"""Zero-dependency observability: metrics and the record stream.

``repro.obs.metrics`` holds a process-local Prometheus-style registry
(counters, gauges, histograms) that every layer — solver, engines,
campaign scheduler, work queue, HTTP service — records into.
``repro.obs.journal`` is the record stream: typed JSONL records
(a check ran, a lease expired, a job was poisoned) sharing one
trace id, where a record with a ``span_id`` and a ``dur`` is a span,
so one campaign reconstructs as a single tree across worker processes
and the network boundary.

Both modules are stdlib-only and import nothing from the rest of
``repro``, so any layer may import them without cycles.
"""

from repro.obs.journal import TraceContext, span
from repro.obs.metrics import (
    MetricsRegistry,
    get_registry,
    metrics_enabled,
    set_metrics_enabled,
)

__all__ = [
    "MetricsRegistry",
    "TraceContext",
    "get_registry",
    "metrics_enabled",
    "set_metrics_enabled",
    "span",
]
