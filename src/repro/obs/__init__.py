"""Observability: metrics registry, request tracing, exposition.

Stdlib-only.  :mod:`repro.obs.metrics` holds the threadsafe
:class:`MetricsRegistry` (counters, gauges, log-bucket histograms,
Prometheus text exposition); :mod:`repro.obs.trace` holds the
:class:`Tracer` (splitmix64-seeded span IDs, ``X-Repro-Trace``
propagation, bounded ring buffer, optional JSONL log).  Every daemon
serves both at ``GET /metrics`` and ``GET /trace/recent``.
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus_text,
    quantile_from_buckets,
)
from repro.obs.trace import (
    TRACE_HEADER,
    Span,
    Tracer,
    bind_parent,
    current_span,
    current_trace_header,
    default_tracer,
    format_trace_header,
    parse_trace_header,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "parse_prometheus_text",
    "quantile_from_buckets",
    "Span",
    "Tracer",
    "TRACE_HEADER",
    "bind_parent",
    "current_span",
    "current_trace_header",
    "default_tracer",
    "format_trace_header",
    "parse_trace_header",
]
