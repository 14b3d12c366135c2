"""Cross-process trace aggregation for parallel runs.

A parallel CCQ run produces one telemetry stream per process: the
parent's ``events.jsonl``/``metrics.json`` plus, per pool worker,
``events-w<id>.jsonl`` and a full-fidelity ``metrics-w<id>.json``
(see :meth:`repro.telemetry.core.Telemetry.for_worker`).  This module
reassembles them into one coherent picture:

* **merged events** — worker span ids are namespaced (``w3:17``) so
  they can never collide with the parent's integer ids, and a worker
  span carrying a ``parent_span`` trace attribute is re-parented under
  the parent process's fan-out span, making each round one tree.
* **worker lanes** — per-worker totals (evaluations, compute seconds,
  queue-wait seconds, sync seconds) plus pool utilization over the
  fan-out window, the numbers ``repro report-run`` renders.
* **merged metrics** — every ``metrics-w<id>.json`` is rebuilt with
  :meth:`MetricsRegistry.from_state` and folded together with
  :meth:`MetricsRegistry.merge`, keeping histogram percentiles exact.

Robustness contract: worker files are written by processes the
supervisor kills on purpose.  A truncated tail, a missing metrics
snapshot or an event file from a worker that died mid-handshake must
degrade to "less data", never to an exception.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .events import read_events
from .metrics import MetricsRegistry
from .report import RunTelemetry, load_run

__all__ = [
    "WorkerLane",
    "AggregatedRun",
    "discover_worker_events",
    "discover_worker_metrics",
    "load_aggregated_run",
    "worker_lanes",
    "pool_summary",
    "fanout_summary",
    "assemble_traces",
    "merge_worker_metrics",
]

_WORKER_EVENTS_RE = re.compile(r"^events-w(\d+)\.jsonl$")
_WORKER_METRICS_RE = re.compile(r"^metrics-w(\d+)\.json$")


def discover_worker_events(directory: Union[str, Path]) -> Dict[int, Path]:
    """``{worker_id: path}`` for every per-worker event file present."""
    out: Dict[int, Path] = {}
    directory = Path(directory)
    if not directory.is_dir():
        return out
    for path in directory.iterdir():
        match = _WORKER_EVENTS_RE.match(path.name)
        if match:
            out[int(match.group(1))] = path
    return dict(sorted(out.items()))


def discover_worker_metrics(directory: Union[str, Path]) -> Dict[int, Path]:
    """``{worker_id: path}`` for every per-worker metrics state file."""
    out: Dict[int, Path] = {}
    directory = Path(directory)
    if not directory.is_dir():
        return out
    for path in directory.iterdir():
        match = _WORKER_METRICS_RE.match(path.name)
        if match:
            out[int(match.group(1))] = path
    return dict(sorted(out.items()))


def _namespace(worker_id: int, span_id: Any) -> Optional[str]:
    if span_id is None:
        return None
    return f"w{worker_id}:{span_id}"


def namespace_worker_events(
    worker_id: int, events: List[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Rewrite one worker file's events for the merged stream.

    Span ids/parents become ``w<id>:<n>`` strings (collision-proof
    against the parent's integer ids and against other workers — a
    respawned worker reuses its id *and* restarts its counter, but it
    also appends to the same file, so a duplicate merged id can only
    mean a duplicate span, which the lane accounting tolerates).  A
    span whose attrs carry ``parent_span`` (the parent process's
    fan-out span id, propagated through the command queue) is
    re-parented under it, stitching the cross-process trace together.
    """
    out: List[Dict[str, Any]] = []
    for event in events:
        event = dict(event)
        event.setdefault("worker", worker_id)
        if event.get("type") == "span":
            event["id"] = _namespace(worker_id, event.get("id"))
            attrs = event.get("attrs") or {}
            cross_parent = attrs.get("parent_span")
            if cross_parent is not None:
                event["parent"] = cross_parent
            else:
                event["parent"] = _namespace(
                    worker_id, event.get("parent")
                )
        out.append(event)
    return out


@dataclass
class WorkerLane:
    """Per-worker activity totals for the lane view."""

    worker_id: int
    evals: int = 0
    ok: int = 0
    syncs: int = 0
    train_shards: int = 0
    busy_s: float = 0.0
    sync_s: float = 0.0
    train_s: float = 0.0
    queue_wait_s: float = 0.0
    first_ts: Optional[float] = None
    last_ts: Optional[float] = None

    def observe_span(self, event: Dict[str, Any]) -> None:
        name = event.get("name")
        duration = float(event.get("duration_s", 0.0) or 0.0)
        ts = event.get("ts")
        if ts is not None:
            ts = float(ts)
            end = ts + duration
            self.first_ts = ts if self.first_ts is None else min(
                self.first_ts, ts
            )
            self.last_ts = end if self.last_ts is None else max(
                self.last_ts, end
            )
        if name == "worker_eval":
            self.evals += 1
            self.busy_s += duration
            attrs = event.get("attrs") or {}
            if attrs.get("status") == "ok":
                self.ok += 1
            wait = attrs.get("queue_wait_s")
            if wait is not None:
                self.queue_wait_s += float(wait)
        elif name == "worker_sync":
            self.syncs += 1
            self.sync_s += duration
        elif name == "worker_train":
            # Recovery gradient shards (DDP): compute time like an
            # eval, tallied separately so the lane view shows the mix.
            self.train_shards += 1
            self.busy_s += duration
            self.train_s += duration
            attrs = event.get("attrs") or {}
            wait = attrs.get("queue_wait_s")
            if wait is not None:
                self.queue_wait_s += float(wait)


@dataclass
class AggregatedRun:
    """The parent run plus every worker's event stream."""

    run: RunTelemetry
    worker_events: Dict[int, List[Dict[str, Any]]] = field(
        default_factory=dict
    )
    worker_metrics_paths: Dict[int, Path] = field(default_factory=dict)

    @property
    def directory(self) -> Path:
        return self.run.directory

    @property
    def n_workers(self) -> int:
        return len(self.worker_events)

    def merged_events(self) -> List[Dict[str, Any]]:
        """Parent + namespaced worker events, ordered by wall clock.

        ``ts`` (``time.time()``) is the only clock the processes share;
        ``mono`` is per-process and must not be compared across files.
        The sort is stable, so equal timestamps keep file order.
        """
        merged = list(self.run.events)
        for worker_id, events in sorted(self.worker_events.items()):
            merged.extend(namespace_worker_events(worker_id, events))
        merged.sort(key=lambda e: float(e.get("ts", 0.0) or 0.0))
        return merged


def load_aggregated_run(directory: Union[str, Path]) -> AggregatedRun:
    """Load the parent run and every readable worker file.

    Worker files may be truncated mid-line (the supervisor kills hung
    workers) — :func:`read_events` already stops at the first torn
    line, so a killed worker contributes its complete prefix.
    """
    run = load_run(directory)
    worker_events: Dict[int, List[Dict[str, Any]]] = {}
    for worker_id, path in discover_worker_events(run.directory).items():
        try:
            worker_events[worker_id] = read_events(path)
        except OSError:
            worker_events[worker_id] = []
    return AggregatedRun(
        run=run,
        worker_events=worker_events,
        worker_metrics_paths=discover_worker_metrics(run.directory),
    )


def worker_lanes(agg: AggregatedRun) -> Dict[int, WorkerLane]:
    """Per-worker lane totals from the worker span streams."""
    lanes: Dict[int, WorkerLane] = {}
    for worker_id, events in sorted(agg.worker_events.items()):
        lane = lanes.setdefault(worker_id, WorkerLane(worker_id))
        for event in events:
            if event.get("type") == "span":
                lane.observe_span(event)
    return lanes


def pool_summary(agg: AggregatedRun) -> Dict[str, Any]:
    """Pool-level rollup: utilization and queue-wait vs compute.

    Utilization is worker busy time over the capacity of the fan-out
    windows (``n_workers x`` the summed ``probe_fanout`` and
    ``recover_fanout`` span durations) — the
    fraction of the time the pool *could* have been computing that it
    actually was.  Queue-wait share is wait/(wait+compute) across all
    worker evaluations.
    """
    lanes = worker_lanes(agg)
    fanout_spans = [
        s for s in agg.run.spans
        if s.get("name") in ("probe_fanout", "recover_fanout")
    ]
    window_s = sum(
        float(s.get("duration_s", 0.0) or 0.0) for s in fanout_spans
    )
    busy_s = sum(lane.busy_s for lane in lanes.values())
    wait_s = sum(lane.queue_wait_s for lane in lanes.values())
    capacity_s = window_s * max(1, len(lanes))
    return {
        "n_workers": len(lanes),
        "fanout_rounds": len(fanout_spans),
        "fanout_window_s": window_s,
        "busy_s": busy_s,
        "sync_s": sum(lane.sync_s for lane in lanes.values()),
        "queue_wait_s": wait_s,
        "utilization": busy_s / capacity_s if capacity_s > 0 else 0.0,
        "queue_wait_share": (
            wait_s / (wait_s + busy_s) if (wait_s + busy_s) > 0 else 0.0
        ),
    }


def fanout_summary(run: RunTelemetry) -> Dict[str, Any]:
    """Totals of the per-round ``fanout_report`` events (salvage /
    requeue / respawn / quarantine overhead), plus the last deadline
    and per-batch EMA in force."""
    totals = {
        "rounds": 0, "attempted": 0, "completed": 0, "salvaged": 0,
        "requeued": 0, "respawned": 0, "quarantined": 0, "missing": 0,
        "degraded_rounds": 0,
    }
    deadline_s: Optional[float] = None
    ema_batch_s: Optional[float] = None
    for event in run.named_events("fanout_report"):
        fields = event.get("fields", {})
        totals["rounds"] += 1
        for key in ("attempted", "completed", "salvaged", "requeued",
                    "respawned", "quarantined", "missing"):
            totals[key] += int(fields.get(key, 0) or 0)
        if fields.get("degraded"):
            totals["degraded_rounds"] += 1
        if fields.get("deadline_s") is not None:
            deadline_s = float(fields["deadline_s"])
        if fields.get("ema_batch_s") is not None:
            ema_batch_s = float(fields["ema_batch_s"])
    out: Dict[str, Any] = dict(totals)
    out["deadline_s"] = deadline_s
    out["ema_batch_s"] = ema_batch_s
    return out


def assemble_traces(agg: AggregatedRun) -> List[Dict[str, Any]]:
    """One entry per parent fan-out span with its worker children.

    Children are matched by the ``parent_span`` attribute the trace
    context carried through the command queue; a worker span that
    arrives out of order (files are read per worker, not by time) or
    references a fan-out span the parent never closed (crash) lands in
    no trace rather than raising.
    """
    fanout_by_id: Dict[Any, Dict[str, Any]] = {}
    traces: List[Dict[str, Any]] = []
    for span in agg.run.spans:
        if span.get("name") == "probe_fanout" and span.get("id") is not None:
            entry = {"fanout": span, "children": []}
            fanout_by_id[span["id"]] = entry
            traces.append(entry)
    for worker_id, events in sorted(agg.worker_events.items()):
        for event in events:
            if event.get("type") != "span":
                continue
            if event.get("name") != "worker_eval":
                continue
            attrs = event.get("attrs") or {}
            parent = attrs.get("parent_span")
            entry = fanout_by_id.get(parent)
            if entry is not None:
                child = dict(event)
                child.setdefault("worker", worker_id)
                child["id"] = _namespace(worker_id, child.get("id"))
                child["parent"] = parent
                entry["children"].append(child)
    for entry in traces:
        entry["children"].sort(
            key=lambda e: float(e.get("ts", 0.0) or 0.0)
        )
    traces.sort(
        key=lambda e: float(e["fanout"].get("ts", 0.0) or 0.0)
    )
    return traces


def merge_worker_metrics(
    directory: Union[str, Path],
    into: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Merge every readable ``metrics-w<id>.json`` into one registry.

    Each worker's registry is labeled with its worker id at merge time
    (series gain a ``worker`` label when they don't carry one), so the
    merged view keeps per-worker resolution without the workers having
    to label every call site.  Unreadable or torn snapshots are
    skipped — the atomic write in the worker makes them rare.
    """
    merged = into if into is not None else MetricsRegistry()
    for worker_id, path in discover_worker_metrics(directory).items():
        try:
            with open(path, "r", encoding="utf-8") as f:
                state = json.load(f)
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(state, dict):
            continue
        for entry in state.get("metrics", []):
            labels = dict(entry.get("labels", {}))
            labels.setdefault("worker", str(worker_id))
            entry["labels"] = labels
        try:
            merged.merge(MetricsRegistry.from_state(state))
        except (TypeError, ValueError):
            continue  # foreign/corrupt snapshot: skip, don't raise
    return merged
