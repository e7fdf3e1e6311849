"""Observability: span tracing, search telemetry, metrics, trace views.

Every fact about a run has one owner; the rest are views:

* :mod:`repro.obs.clock` — the monotonic clock helper all timing uses;
* :mod:`repro.obs.tracer` — span trees (timing), with a
  near-zero-overhead no-op mode (the default everywhere);
* :mod:`repro.obs.telemetry` — the optimizer's search counters, one
  :class:`SearchTelemetry` per ``optimize()``;
* :mod:`repro.obs.metrics` — the cross-run metrics registry
  (counters / gauges / labeled exponential-bucket histograms) with
  Prometheus and JSON export;
* :mod:`repro.obs.export` — views of a span list: JSONL traces, ASCII
  span trees, collapsed-stack flamegraph profiles, self-time tables.

EXPLAIN / EXPLAIN ANALYZE (:mod:`repro.core.explain`) is a view over a
plan and, optionally, the spans of one execution of it.

In the layering, ``obs`` sits beside ``analysis``: the tracer and
telemetry primitives depend on nothing, and the instrumented layers
(``core.optimizer``, ``costmodel.base``, ``engine.executor``) accept a
tracer and a registry without requiring either.
"""

from repro.obs.clock import ManualClock, monotonic
from repro.obs.export import (
    ProfileRow,
    collapsed_stacks,
    format_snapshot,
    read_jsonl,
    render_self_time_table,
    render_span_tree,
    self_time_table,
    spans_from_dicts,
    to_collapsed,
    write_collapsed,
    write_jsonl,
)
from repro.obs.metrics import (
    NOOP_METRICS,
    MetricsRegistry,
    NoopMetricsRegistry,
    disable_metrics,
    enable_metrics,
    get_metrics,
    set_metrics,
)
from repro.obs.telemetry import SearchTelemetry
from repro.obs.tracer import NOOP_TRACER, NoopTracer, Span, Tracer

__all__ = [
    "ManualClock",
    "MetricsRegistry",
    "NOOP_METRICS",
    "NOOP_TRACER",
    "NoopMetricsRegistry",
    "NoopTracer",
    "ProfileRow",
    "SearchTelemetry",
    "Span",
    "Tracer",
    "collapsed_stacks",
    "disable_metrics",
    "enable_metrics",
    "format_snapshot",
    "get_metrics",
    "monotonic",
    "read_jsonl",
    "render_self_time_table",
    "render_span_tree",
    "self_time_table",
    "set_metrics",
    "spans_from_dicts",
    "to_collapsed",
    "write_collapsed",
    "write_jsonl",
]
