"""The metrics registry: counters, gauges and histograms.

A dependency-free (stdlib-only) metrics layer in the spirit of a
Prometheus client, sized for a single long-running CCQ search rather
than a fleet: metrics live in one in-process :class:`MetricsRegistry`,
series are keyed by ``(name, labels)``, and the whole registry
snapshots to JSON (``metrics.json``) or CSV for post-hoc analysis by
``repro report-run``.

Design constraints:

* **Bounded memory** — histograms keep raw observations (a CCQ run
  produces thousands, not millions, of samples), but label cardinality
  per metric name is capped; series beyond the cap collapse into a
  single ``overflow="true"`` series instead of growing without bound.
* **Never kill the run** — recording a metric must not raise in normal
  operation; telemetry is an observer, not a participant.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DROPPED_SERIES_METRIC",
    "prometheus_text",
]

# Self-metric incremented whenever the per-name label-cardinality cap
# collapses a new series into the overflow bucket, so the drop is
# visible in scrapes and merged reports, not just the raw attribute.
DROPPED_SERIES_METRIC = "telemetry.dropped_series"

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount


class Gauge:
    """A value that can go up and down (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value = (self.value or 0.0) + float(delta)


class Histogram:
    """A distribution summarized by count/sum/min/max/mean and percentiles.

    Raw observations are kept (bounded by run length, not traffic), so
    percentiles are exact up to linear interpolation between order
    statistics — no bucket-boundary error.
    """

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        value = float(value)
        if math.isfinite(value):
            self.values.append(value)

    @property
    def count(self) -> int:
        return len(self.values)

    def percentile(self, q: float) -> Optional[float]:
        """Exact percentile ``q`` in [0, 100], linearly interpolated."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self.values:
            return None
        ordered = sorted(self.values)
        if len(ordered) == 1:
            return ordered[0]
        rank = (q / 100.0) * (len(ordered) - 1)
        lo = math.floor(rank)
        hi = math.ceil(rank)
        if lo == hi:
            return ordered[lo]
        frac = rank - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def summary(self) -> Dict[str, Any]:
        if not self.values:
            return {"count": 0, "sum": 0.0, "min": None, "max": None,
                    "mean": None, "p50": None, "p90": None, "p99": None}
        total = sum(self.values)
        return {
            "count": len(self.values),
            "sum": total,
            "min": min(self.values),
            "max": max(self.values),
            "mean": total / len(self.values),
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Labeled metric series, created on first use.

    ``registry.counter("ccq.retries", layer="conv1").inc()`` — the
    ``(name, labels)`` pair identifies one series; asking for the same
    pair again returns the same metric object.  Requesting an existing
    name with a different metric *type* raises, which catches the
    classic "histogram and counter share a name" bug at the call site.
    """

    METRIC_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def __init__(self, max_series_per_name: int = 512) -> None:
        if max_series_per_name < 1:
            raise ValueError("max_series_per_name must be >= 1")
        self.max_series_per_name = max_series_per_name
        self._series: Dict[str, Dict[LabelKey, Any]] = {}
        self._types: Dict[str, str] = {}
        self.dropped_series = 0
        self._overflow_logged: set = set()
        self._in_overflow = False

    def _get(self, kind: str, name: str, labels: Dict[str, Any]) -> Any:
        existing = self._types.get(name)
        if existing is None:
            self._types[name] = kind
        elif existing != kind:
            raise TypeError(
                f"metric {name!r} is a {existing}, requested as {kind}"
            )
        series = self._series.setdefault(name, {})
        key = _label_key(labels)
        metric = series.get(key)
        if metric is None:
            if len(series) >= self.max_series_per_name:
                # Cardinality guard: collapse the overflow into one
                # shared series instead of growing without bound (or
                # killing the run it is observing).
                self.dropped_series += 1
                self._note_overflow(name)
                key = _label_key({"overflow": "true"})
                metric = series.get(key)
                if metric is None:
                    metric = self.METRIC_TYPES[kind]()
                    series[key] = metric
                return metric
            metric = self.METRIC_TYPES[kind]()
            series[key] = metric
        return metric

    def _note_overflow(self, name: str) -> None:
        """Record a dropped series visibly: self-metric + one-shot log.

        The re-entrancy guard keeps the self-metric from recursing into
        the cardinality check it is reporting on.
        """
        if self._in_overflow or name == DROPPED_SERIES_METRIC:
            return
        self._in_overflow = True
        try:
            self._get("counter", DROPPED_SERIES_METRIC,
                      {"metric": name}).inc()
            if name not in self._overflow_logged:
                self._overflow_logged.add(name)
                import sys
                sys.stderr.write(
                    f"[telemetry] metric {name!r} hit the label-cardinality "
                    f"cap ({self.max_series_per_name} series); further "
                    f"label sets collapse into overflow=true "
                    f"(logged once per metric)\n"
                )
        finally:
            self._in_overflow = False

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get("gauge", name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get("histogram", name, labels)

    # -- merge / full-fidelity state ------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other``'s series into this registry, in place.

        Series with the same ``(name, labels)`` combine by kind:
        counters add, gauges take the other side's value when set
        (last-writer-wins, matching :meth:`Gauge.set`), histograms
        concatenate raw observations so post-merge percentiles stay
        exact.  A name carrying a different metric *type* on the two
        sides raises ``TypeError``, same as at the call site.
        """
        for name, kind, labels, metric in other.series():
            mine = self._get(kind, name, labels)
            if kind == "counter":
                mine.value += metric.value
            elif kind == "gauge":
                if metric.value is not None:
                    mine.value = metric.value
            else:
                mine.values.extend(metric.values)
        self.dropped_series += other.dropped_series
        return self

    def state(self) -> Dict[str, Any]:
        """Full-fidelity JSON-ready dump (raw histogram observations).

        Unlike :meth:`snapshot` this loses nothing: a registry rebuilt
        via :meth:`from_state` merges exactly like the original.  Used
        by pool workers to ship their registry across process exit.
        """
        metrics: List[Dict[str, Any]] = []
        for name, kind, labels, metric in self.series():
            entry: Dict[str, Any] = {
                "name": name, "kind": kind, "labels": labels,
            }
            if kind == "histogram":
                entry["values"] = list(metric.values)
            else:
                entry["value"] = metric.value
            metrics.append(entry)
        return {
            "format": "metrics-state-v1",
            "dropped_series": self.dropped_series,
            "metrics": metrics,
        }

    @classmethod
    def from_state(
        cls, state: Dict[str, Any], max_series_per_name: int = 512
    ) -> "MetricsRegistry":
        """Rebuild a registry from a :meth:`state` dump."""
        fmt = state.get("format")
        if fmt != "metrics-state-v1":
            raise ValueError(
                f"not a metrics state dump (format={fmt!r})"
            )
        registry = cls(max_series_per_name=max_series_per_name)
        for entry in state.get("metrics", []):
            kind = entry.get("kind")
            if kind not in cls.METRIC_TYPES:
                continue
            metric = registry._get(kind, entry["name"],
                                   dict(entry.get("labels", {})))
            if kind == "histogram":
                metric.values.extend(
                    float(v) for v in entry.get("values", [])
                )
            elif kind == "counter":
                metric.value = float(entry.get("value") or 0.0)
            else:
                value = entry.get("value")
                metric.value = None if value is None else float(value)
        registry.dropped_series = int(state.get("dropped_series", 0))
        return registry

    def write_state(self, path: Union[str, Path]) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(path).with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(self.state(), f)
        tmp.replace(path)

    @classmethod
    def read_state(cls, path: Union[str, Path]) -> "MetricsRegistry":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_state(json.load(f))

    # -- export ---------------------------------------------------------

    def series(self) -> Iterable[Tuple[str, str, Dict[str, str], Any]]:
        """Yield ``(name, kind, labels, metric)`` for every series."""
        for name in sorted(self._series):
            kind = self._types[name]
            for key in sorted(self._series[name]):
                yield name, kind, dict(key), self._series[name][key]

    def snapshot(self) -> Dict[str, Any]:
        """The whole registry as JSON-ready values (stable ordering)."""
        out: Dict[str, Any] = {"counters": [], "gauges": [], "histograms": []}
        for name, kind, labels, metric in self.series():
            entry: Dict[str, Any] = {"name": name, "labels": labels}
            if kind == "counter":
                entry["value"] = metric.value
                out["counters"].append(entry)
            elif kind == "gauge":
                entry["value"] = metric.value
                out["gauges"].append(entry)
            else:
                entry.update(metric.summary())
                out["histograms"].append(entry)
        if self.dropped_series:
            out["dropped_series"] = self.dropped_series
        return out

    def write_json(self, path: Union[str, Path]) -> None:
        payload = dict(self.snapshot())
        payload["written_at"] = time.time()
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Atomic replace: the run rewrites this file every step and
        # ``repro watch`` reads it concurrently — a reader must never
        # see a half-written snapshot.
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
        tmp.replace(path)

    def to_csv(self) -> str:
        """Flat CSV: one row per scalar (histograms expand to summaries)."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["name", "labels", "type", "field", "value"])
        for name, kind, labels, metric in self.series():
            label_text = ",".join(f"{k}={v}" for k, v in labels.items())
            if kind in ("counter", "gauge"):
                writer.writerow([name, label_text, kind, "value",
                                 metric.value])
            else:
                for field, value in metric.summary().items():
                    writer.writerow([name, label_text, kind, field, value])
        return buf.getvalue()

    def write_csv(self, path: Union[str, Path]) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(self.to_csv())


# -- Prometheus exposition ----------------------------------------------


def _prom_name(name: str) -> str:
    """Sanitize to the Prometheus metric-name charset."""
    cleaned = "".join(
        c if (c.isascii() and (c.isalnum() or c in "_:")) else "_"
        for c in name
    )
    if not cleaned or not (cleaned[0].isalpha() or cleaned[0] in "_:"):
        cleaned = "_" + cleaned
    return cleaned


def _prom_labels(labels: Dict[str, Any]) -> str:
    if not labels:
        return ""
    parts = []
    for k, v in sorted(labels.items()):
        value = (
            str(v).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n")
        )
        parts.append(f'{_prom_name(str(k))}="{value}"')
    return "{" + ",".join(parts) + "}"


def prometheus_text(snapshot: Dict[str, Any]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` dict as Prometheus
    text exposition format (version 0.0.4).

    Counters and gauges map directly; histograms expose as summaries
    (``quantile`` labels plus ``_sum``/``_count``).  Operates on the
    snapshot dict rather than the registry so it works on a
    ``metrics.json`` read off disk, which is how the ``repro watch``
    HTTP endpoint serves runs it does not own.
    """
    lines: List[str] = []
    seen_types: set = set()

    def type_line(name: str, prom_type: str) -> None:
        if name not in seen_types:
            seen_types.add(name)
            lines.append(f"# TYPE {name} {prom_type}")

    for entry in snapshot.get("counters", []):
        name = _prom_name(entry["name"])
        type_line(name, "counter")
        lines.append(
            f"{name}{_prom_labels(entry.get('labels', {}))} "
            f"{float(entry.get('value') or 0.0):g}"
        )
    for entry in snapshot.get("gauges", []):
        if entry.get("value") is None:
            continue
        name = _prom_name(entry["name"])
        type_line(name, "gauge")
        lines.append(
            f"{name}{_prom_labels(entry.get('labels', {}))} "
            f"{float(entry['value']):g}"
        )
    for entry in snapshot.get("histograms", []):
        if not entry.get("count"):
            continue
        name = _prom_name(entry["name"])
        type_line(name, "summary")
        labels = dict(entry.get("labels", {}))
        for q, field in ((0.5, "p50"), (0.9, "p90"), (0.99, "p99")):
            value = entry.get(field)
            if value is None:
                continue
            q_labels = dict(labels)
            q_labels["quantile"] = f"{q:g}"
            lines.append(f"{name}{_prom_labels(q_labels)} {value:g}")
        lines.append(
            f"{name}_sum{_prom_labels(labels)} "
            f"{float(entry.get('sum') or 0.0):g}"
        )
        lines.append(
            f"{name}_count{_prom_labels(labels)} {int(entry['count'])}"
        )
    if snapshot.get("dropped_series"):
        type_line("telemetry_dropped_series_total", "counter")
        lines.append(
            f"telemetry_dropped_series_total "
            f"{int(snapshot['dropped_series'])}"
        )
    return "\n".join(lines) + "\n"
