"""The :class:`Telemetry` facade: one handle bundling the whole layer.

Everything the runtime touches goes through this object — metrics,
spans, structured events, the logger and the progress line — so
instrumented code needs exactly one optional parameter, and the
disabled path is one shared :data:`NULL_TELEMETRY` singleton whose
every operation is a no-op.

Typical construction::

    telemetry = Telemetry.create("out/run1", log_level="info")
    ccq = CCQQuantizer(model, train, val, telemetry=telemetry)
    ccq.run()
    telemetry.close()          # flushes events.jsonl, writes metrics.json

Files written under the directory::

    events.jsonl    spans + structured events + mirrored log lines
    metrics.json    registry snapshot (counters/gauges/histograms)
    metrics.csv     the same snapshot, flat
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any, Optional, TextIO, Union

from .events import EventSink, JsonlSink, MemorySink, NullSink, StampingSink
from .logging import ProgressLine, StructuredLogger
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .spans import NullTracer, SpanTracer

__all__ = [
    "Telemetry",
    "NULL_TELEMETRY",
    "worker_events_file",
    "worker_metrics_file",
]

EVENTS_FILE = "events.jsonl"
METRICS_FILE = "metrics.json"
METRICS_CSV_FILE = "metrics.csv"


def worker_events_file(worker_id: int) -> str:
    """Per-worker event file name (``events-w<id>.jsonl``)."""
    return f"events-w{worker_id}.jsonl"


def worker_metrics_file(worker_id: int) -> str:
    """Per-worker full-fidelity metrics state (``metrics-w<id>.json``)."""
    return f"metrics-w{worker_id}.json"


class _NullMetric:
    """Accepts every metric operation and does nothing."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_METRIC = _NullMetric()


class Telemetry:
    """Bundle of registry + tracer + sink + logger + progress line."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanTracer] = None,
        sink: Optional[EventSink] = None,
        logger: Optional[StructuredLogger] = None,
        progress: Optional[ProgressLine] = None,
        directory: Optional[Union[str, Path]] = None,
        enabled: bool = True,
    ) -> None:
        self.enabled = enabled
        self.directory = Path(directory) if directory is not None else None
        self.sink = sink if sink is not None else NullSink()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else SpanTracer(self.sink)
        self.logger = logger if logger is not None else StructuredLogger(
            level="silent"
        )
        self.progress = progress if progress is not None else ProgressLine(
            enabled=False
        )

    # -- construction ---------------------------------------------------

    @classmethod
    def null(cls) -> "Telemetry":
        """The shared do-nothing instance (see :data:`NULL_TELEMETRY`)."""
        return cls(
            sink=NullSink(),
            tracer=NullTracer(),  # type: ignore[arg-type]
            logger=StructuredLogger(level="silent"),
            progress=ProgressLine(enabled=False),
            enabled=False,
        )

    @classmethod
    def create(
        cls,
        directory: Optional[Union[str, Path]] = None,
        log_level: str = "info",
        log_stream: Optional[TextIO] = None,
        error_stream: Optional[TextIO] = None,
        progress: bool = False,
        progress_stream: Optional[TextIO] = None,
    ) -> "Telemetry":
        """A live telemetry handle.

        With ``directory`` every span/event/log lands in
        ``<directory>/events.jsonl`` and ``close()`` snapshots the
        metrics registry to ``metrics.json`` + ``metrics.csv``; without
        it only the logger and progress line are active (no files).
        """
        sink: EventSink
        if directory is not None:
            Path(directory).mkdir(parents=True, exist_ok=True)
            sink = JsonlSink(Path(directory) / EVENTS_FILE)
        else:
            sink = NullSink()
        logger = StructuredLogger(
            level=log_level, stream=log_stream,
            error_stream=error_stream, sink=sink,
        )
        return cls(
            sink=sink,
            logger=logger,
            progress=ProgressLine(stream=progress_stream, enabled=progress),
            directory=directory,
        )

    @classmethod
    def in_memory(cls, **kwargs: Any) -> "Telemetry":
        """Telemetry backed by a :class:`MemorySink` (tests, notebooks)."""
        return cls(sink=MemorySink(), **kwargs)

    @classmethod
    def for_worker(
        cls, directory: Union[str, Path], worker_id: int
    ) -> "Telemetry":
        """A telemetry handle for one pool worker process.

        Spans/events land in ``events-w<id>.jsonl`` stamped with the
        worker id and pid.  ``directory`` is deliberately *not* set on
        the handle: ``flush()``/``close()`` in the worker must never
        clobber the parent's ``metrics.json``.  The worker's registry
        ships via :meth:`write_worker_metrics` to ``metrics-w<id>.json``
        instead, in full fidelity so the aggregator can merge exact
        histograms.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        sink = StampingSink(
            JsonlSink(directory / worker_events_file(worker_id)),
            worker=int(worker_id),
            pid=os.getpid(),
        )
        handle = cls(sink=sink, directory=None)
        handle.worker_id = int(worker_id)
        handle.worker_directory = directory
        return handle

    def write_worker_metrics(self) -> None:
        """Snapshot the worker registry to its ``metrics-w<id>.json``.

        Atomic (write + rename) so the parent never reads a torn file;
        called after every sync barrier and on shutdown so a killed
        worker still leaves its last consistent snapshot behind.
        """
        directory = getattr(self, "worker_directory", None)
        worker_id = getattr(self, "worker_id", None)
        if directory is None or worker_id is None:
            return
        self.registry.write_state(
            Path(directory) / worker_metrics_file(worker_id)
        )

    # -- paths ----------------------------------------------------------

    @property
    def events_path(self) -> Optional[Path]:
        return (
            self.directory / EVENTS_FILE
            if self.directory is not None else None
        )

    @property
    def metrics_path(self) -> Optional[Path]:
        return (
            self.directory / METRICS_FILE
            if self.directory is not None else None
        )

    # -- instrumentation API --------------------------------------------

    def span(self, name: str, **attrs: Any) -> Any:
        return self.tracer.span(name, **attrs)

    def counter(self, name: str, **labels: Any) -> "Counter | _NullMetric":
        if not self.enabled:
            return _NULL_METRIC
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels: Any) -> "Gauge | _NullMetric":
        if not self.enabled:
            return _NULL_METRIC
        return self.registry.gauge(name, **labels)

    def histogram(
        self, name: str, **labels: Any
    ) -> "Histogram | _NullMetric":
        if not self.enabled:
            return _NULL_METRIC
        return self.registry.histogram(name, **labels)

    def event(self, name: str, **fields: Any) -> None:
        """Emit one structured (non-span, non-log) event."""
        if not self.enabled:
            return
        self.sink.emit({
            "type": "event", "name": name, "ts": time.time(),
            "mono": time.perf_counter(), "fields": fields,
        })

    # -- lifecycle ------------------------------------------------------

    def flush(self) -> None:
        """Flush the sink and snapshot metrics to disk (if file-backed)."""
        self.sink.flush()
        if self.directory is not None:
            self.registry.write_json(self.directory / METRICS_FILE)

    def close(self) -> None:
        """Final flush; also writes the CSV snapshot alongside."""
        self.flush()
        if self.directory is not None:
            self.registry.write_csv(self.directory / METRICS_CSV_FILE)
        self.progress.close()
        self.sink.close()


NULL_TELEMETRY = Telemetry.null()
"""Module-level disabled instance; the default everywhere."""
