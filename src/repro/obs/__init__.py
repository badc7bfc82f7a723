"""Unified tracing & profiling layer (``repro.obs``).

One stdlib-only subsystem answers "where did the time and memory go?"
for every part of the reproduction:

* :class:`Tracer` / :func:`span` — hierarchical spans over the model
  engines (trace build, stack passes, profile queries), the cache
  simulator, ``measure_matrix`` phases, pool workers and the advisor
  service.  A process-local ambient tracer keeps the instrumentation at
  zero cost when disabled (:func:`span` returns a shared no-op span).
* :class:`TraceTree` — serializable span forests that merge across
  processes: fork-pool workers ship their trees back with each record
  and the parent reassembles one deterministic tree per run.
* :mod:`repro.obs.report` — the ``--trace`` console report (indented
  tree + self-time hot list).
* :class:`LatencyHistogram` / :class:`MetricStore` /
  :mod:`repro.obs.prometheus` — the metric families behind the daemon's
  and the gateway's ``/metrics``: one declaration per family feeds the
  value store, its JSON snapshot and the Prometheus text exposition.
* :mod:`repro.obs.schema` — structural validation of serialized traces
  (also a CLI: ``python -m repro.obs.schema trace.json``).
"""

from .audit import AccuracyAuditor, compare_results
from .context import TRACE_HEADER, TraceContext, new_span_id, new_trace_id
from .histogram import LATENCY_BUCKETS, LatencyHistogram
from .prometheus import MetricStore, parse_prometheus_text, render_prometheus
from .report import render_report, render_self_times, render_tree
from .traces import TraceBuffer
from .tracer import (
    NULL_SPAN,
    Span,
    Tracer,
    count,
    enabled,
    get_tracer,
    install,
    installed,
    peak_rss_bytes,
    span,
)
from .tree import SpanNode, TraceTree, self_seconds

# imported lazily so `python -m repro.obs.schema` / `python -m
# repro.obs.events` do not trip runpy's already-in-sys.modules warning
# (the CLIs live in the submodules)
_SCHEMA_EXPORTS = ("TRACE_SCHEMA_ID", "validate_trace_payload", "validate_tree")
_EVENTS_EXPORTS = ("EVENT_SCHEMA_ID", "EventLog", "validate_entry",
                   "validate_log_text")


def __getattr__(name: str):
    if name in _SCHEMA_EXPORTS:
        from . import schema

        return getattr(schema, name)
    if name in _EVENTS_EXPORTS:
        from . import events

        return getattr(events, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AccuracyAuditor",
    "EVENT_SCHEMA_ID",
    "EventLog",
    "LATENCY_BUCKETS",
    "LatencyHistogram",
    "MetricStore",
    "NULL_SPAN",
    "Span",
    "SpanNode",
    "TRACE_HEADER",
    "TRACE_SCHEMA_ID",
    "TraceBuffer",
    "TraceContext",
    "TraceTree",
    "Tracer",
    "compare_results",
    "count",
    "enabled",
    "get_tracer",
    "install",
    "installed",
    "new_span_id",
    "new_trace_id",
    "parse_prometheus_text",
    "peak_rss_bytes",
    "render_prometheus",
    "render_report",
    "render_self_times",
    "render_tree",
    "self_seconds",
    "span",
    "validate_entry",
    "validate_log_text",
    "validate_trace_payload",
    "validate_tree",
]
