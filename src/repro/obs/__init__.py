"""Zero-dependency observability: the record stream and service metrics.

``repro.obs.journal`` is the record stream: typed
JSONL records (a check ran, a lease expired, a job was poisoned)
sharing one trace id, where a record with a ``span_id`` and a ``dur``
is a span, so one campaign reconstructs as a single tree across worker
processes and the network boundary.  A verdict's effort travels with
the verdict itself (``ProofStats``, attempt logs, the ledger), and the
journal's ``check`` records say where each answer came from.

``obs/metrics.py`` is the Prometheus-style registry a
``ProofService`` owns and serves on ``/metrics`` (wire requests, queue
churn and depth); only the service and its work queue import it.

Both modules are stdlib-only and import nothing from the rest of
``repro``, so any layer may import them without cycles.
"""

from repro.obs.journal import TraceContext, span

__all__ = ["TraceContext", "span"]
