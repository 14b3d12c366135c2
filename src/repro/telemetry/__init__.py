"""``repro.telemetry`` — dependency-free observability for CCQ runs.

Cooperating parts behind one facade (:class:`Telemetry`):

* a **metrics registry** — counters, gauges and histograms (exact
  p50/p90/p99) with labeled series, snapshotting to
  ``metrics.json`` / ``metrics.csv``, mergeable across processes
  (:meth:`MetricsRegistry.merge`);
* a **span tracer** — nested wall-clock spans for every CCQ stage,
  flushed to an append-only ``events.jsonl`` (per pool worker:
  ``events-w<id>.jsonl``, reassembled by :mod:`.aggregate`);
* a **structured logger** + live progress line replacing bare prints;
* an **op-level profiler** (:mod:`.profiler`) hooking the autograd
  dispatch for per-op wall-clock/FLOPs/bytes accounting;
* **live monitoring** (:mod:`.monitor`) — tail an in-progress run's
  telemetry directory, optionally serving Prometheus text over HTTP.

The disabled path is :data:`NULL_TELEMETRY`, a shared singleton whose
operations are allocation-free no-ops, so instrumentation costs nothing
when switched off (the default everywhere).
"""

from .aggregate import (
    AggregatedRun,
    WorkerLane,
    assemble_traces,
    discover_worker_events,
    discover_worker_metrics,
    fanout_summary,
    load_aggregated_run,
    merge_worker_metrics,
    namespace_worker_events,
    pool_summary,
    worker_lanes,
)
from .core import (
    NULL_TELEMETRY,
    Telemetry,
    worker_events_file,
    worker_metrics_file,
)
from .events import (
    EventSink,
    JsonlSink,
    MemorySink,
    NullSink,
    StampingSink,
    read_events,
)
from .logging import LEVELS, ProgressLine, StructuredLogger, format_eta
from .metrics import (
    Counter,
    DROPPED_SERIES_METRIC,
    Gauge,
    Histogram,
    MetricsRegistry,
    prometheus_text,
)
from .monitor import MonitorState, RunMonitor, serve_metrics
from .profiler import OpProfiler, profile_model
from .report import (
    RunTelemetry,
    STAGES,
    format_report,
    load_run,
    stage_breakdown,
    trajectory,
    write_trajectory_svg,
)
from .spans import NullTracer, Span, SpanTracer

__all__ = [
    "Telemetry",
    "NULL_TELEMETRY",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DROPPED_SERIES_METRIC",
    "prometheus_text",
    "SpanTracer",
    "NullTracer",
    "Span",
    "EventSink",
    "JsonlSink",
    "MemorySink",
    "NullSink",
    "StampingSink",
    "read_events",
    "StructuredLogger",
    "ProgressLine",
    "LEVELS",
    "format_eta",
    "RunTelemetry",
    "STAGES",
    "load_run",
    "stage_breakdown",
    "trajectory",
    "format_report",
    "write_trajectory_svg",
    "worker_events_file",
    "worker_metrics_file",
    "AggregatedRun",
    "WorkerLane",
    "assemble_traces",
    "discover_worker_events",
    "discover_worker_metrics",
    "fanout_summary",
    "load_aggregated_run",
    "namespace_worker_events",
    "merge_worker_metrics",
    "pool_summary",
    "worker_lanes",
    "OpProfiler",
    "profile_model",
    "MonitorState",
    "RunMonitor",
    "serve_metrics",
]
