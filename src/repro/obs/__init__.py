"""Observability layer: tracing spans + a metrics registry (stdlib-only).

See ``docs/observability.md`` for the API guide, exporter formats and
the metric name catalogue.
"""

from .exporters import export_chrome, export_jsonl, span_to_trace_event
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SECONDS_BUCKETS,
    SIZE_BUCKETS,
    counters_only,
)
from .trace import (
    DEFAULT_MAX_SPANS,
    NULL_SPAN,
    Span,
    Tracer,
    configure_tracing,
    get_tracer,
)

__all__ = [
    "Counter",
    "DEFAULT_MAX_SPANS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "SECONDS_BUCKETS",
    "SIZE_BUCKETS",
    "Span",
    "Tracer",
    "configure_tracing",
    "counters_only",
    "export_chrome",
    "export_jsonl",
    "get_tracer",
    "span_to_trace_event",
]
