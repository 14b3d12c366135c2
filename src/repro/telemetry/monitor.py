"""Live monitoring of an in-progress run: ``repro watch``.

A CCQ run continuously appends to ``events.jsonl`` and atomically
rewrites ``metrics.json`` once per step, so an *observer process* can
reconstruct the live state of a run it does not own purely from the
filesystem — no sockets, no shared memory, no cooperation from the run
beyond ``--telemetry-dir``.

:class:`RunMonitor` is that observer: an incremental tailer that keeps
a byte offset into ``events.jsonl`` (tolerating torn final lines — a
partial line stays buffered until its newline arrives), folds each
event into a :class:`MonitorState`, and refreshes gauges/counters from
the latest ``metrics.json``.  On top of it sit

* :func:`watch` — the terminal loop behind ``repro watch <run-dir>``,
  re-rendering a one-screen panel (step, stage, accuracy/compression,
  bit map, expert weights, divergence/retry/pool-health counters);
* :func:`serve_metrics` — an opt-in stdlib-only HTTP endpoint serving
  the current snapshot in Prometheus text format (``/metrics``) and as
  JSON (``/state``), for scraping a long run from elsewhere.

Everything here is read-only with respect to the run directory and
uses no RNG: watching a run can never perturb it.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, TextIO, Union

from .core import EVENTS_FILE, METRICS_FILE
from .metrics import prometheus_text

__all__ = ["MonitorState", "RunMonitor", "watch", "serve_metrics"]

# Span names treated as "the run is now in stage X" for the live view.
_STAGE_NAMES = {
    "initialize", "probe", "probe_fanout", "recover", "recover_fanout",
    "eval", "snapshot", "account", "checkpoint",
}


class MonitorState:
    """The live view of a run, folded from its event stream + metrics."""

    def __init__(self) -> None:
        self.events_seen = 0
        self.status = "waiting"  # waiting | running | complete | interrupted
        self.step: Optional[int] = None
        self.stage: Optional[str] = None
        self.last_event_ts: Optional[float] = None
        self.last_step: Dict[str, Any] = {}
        self.last_fanout: Dict[str, Any] = {}
        self.last_warning: Optional[str] = None
        self.accuracy: Optional[float] = None
        self.compression: Optional[float] = None
        self.bit_map: Dict[str, float] = {}
        self.expert_weights: Dict[str, float] = {}
        self.counters: Dict[str, float] = {}
        self.pool_workers: Optional[float] = None
        self.recover_active_shards: Optional[float] = None
        self.recover_allreduce_round: Optional[float] = None

    # -- event folding --------------------------------------------------

    def observe(self, event: Dict[str, Any]) -> None:
        self.events_seen += 1
        ts = event.get("ts")
        if ts is not None:
            self.last_event_ts = float(ts)
        kind = event.get("type")
        if kind == "span":
            name = event.get("name")
            # Spans are emitted at *exit*: the most recent stage span is
            # the last stage known to have finished, which is the best
            # available proxy for "where the run is".
            if name in _STAGE_NAMES:
                self.stage = name
                if self.status == "waiting":
                    self.status = "running"
            elif name == "run":
                self.status = (
                    "complete" if self.status != "interrupted"
                    else self.status
                )
        elif kind == "event":
            name = event.get("name")
            fields = event.get("fields", {})
            if name == "step_complete":
                self.last_step = dict(fields)
                if fields.get("step") is not None:
                    self.step = int(fields["step"])
                if fields.get("recovered_accuracy") is not None:
                    self.accuracy = float(fields["recovered_accuracy"])
                if fields.get("compression") is not None:
                    self.compression = float(fields["compression"])
                layer = fields.get("layer")
                if layer is not None and fields.get("to_bits") is not None:
                    self.bit_map[str(layer)] = float(fields["to_bits"])
                self.status = "running"
            elif name == "fanout_report":
                self.last_fanout = dict(fields)
            elif name == "run_complete":
                self.status = "complete"
            elif name == "interrupted":
                self.status = "interrupted"
            elif name == "resumed":
                self.status = "running"
                if fields.get("step") is not None:
                    self.step = int(fields["step"])
        elif kind == "log":
            if event.get("level") in ("warning", "error"):
                self.last_warning = str(event.get("msg"))

    # -- metrics folding ------------------------------------------------

    def update_metrics(self, snapshot: Dict[str, Any]) -> None:
        for entry in snapshot.get("gauges", []):
            name = entry.get("name")
            value = entry.get("value")
            labels = entry.get("labels", {})
            if value is None:
                continue
            if name == "hedge.expert_weight" and "expert" in labels:
                self.expert_weights[labels["expert"]] = float(value)
            elif name == "ccq.layer_bits" and "layer" in labels:
                self.bit_map[labels["layer"]] = float(value)
            elif name == "ccq.accuracy":
                self.accuracy = float(value)
            elif name == "ccq.compression":
                self.compression = float(value)
            elif name == "ccq.probe_pool_workers":
                self.pool_workers = float(value)
            elif name == "ccq.recover_active_shards":
                self.recover_active_shards = float(value)
            elif name == "ccq.recover_allreduce_round":
                self.recover_allreduce_round = float(value)
        for entry in snapshot.get("counters", []):
            if entry.get("labels"):
                continue
            self.counters[entry["name"]] = float(entry.get("value", 0.0))

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready dump for the ``/state`` HTTP endpoint."""
        return {
            "status": self.status,
            "step": self.step,
            "stage": self.stage,
            "events_seen": self.events_seen,
            "last_event_ts": self.last_event_ts,
            "accuracy": self.accuracy,
            "compression": self.compression,
            "bit_map": dict(self.bit_map),
            "expert_weights": dict(self.expert_weights),
            "counters": dict(self.counters),
            "pool_workers": self.pool_workers,
            "recover_active_shards": self.recover_active_shards,
            "recover_allreduce_round": self.recover_allreduce_round,
            "last_step": dict(self.last_step),
            "last_fanout": dict(self.last_fanout),
            "last_warning": self.last_warning,
        }


class RunMonitor:
    """Incremental tailer over one run directory.

    ``poll()`` consumes whatever bytes ``events.jsonl`` gained since
    the last call (buffering a torn final line until it completes) and
    re-reads ``metrics.json`` if present; each call is cheap enough for
    a sub-second refresh loop.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.events_path = self.directory / EVENTS_FILE
        self.metrics_path = self.directory / METRICS_FILE
        self.state = MonitorState()
        self._offset = 0
        self._partial = b""
        self.metrics_snapshot: Dict[str, Any] = {}

    def poll(self) -> int:
        """Consume new telemetry; returns the number of new events."""
        consumed = self._poll_events()
        self._poll_metrics()
        return consumed

    def _poll_events(self) -> int:
        try:
            size = self.events_path.stat().st_size
        except OSError:
            return 0
        if size < self._offset:
            # Truncated/replaced (e.g. the directory was reused for a
            # fresh run): start over rather than mis-splice streams.
            self._offset = 0
            self._partial = b""
            self.state = MonitorState()
        if size == self._offset:
            return 0
        try:
            with open(self.events_path, "rb") as f:
                f.seek(self._offset)
                chunk = f.read(size - self._offset)
        except OSError:
            return 0
        self._offset += len(chunk)
        data = self._partial + chunk
        lines = data.split(b"\n")
        # The final piece is complete only if the chunk ended in \n
        # (in which case it is empty anyway).
        self._partial = lines.pop()
        consumed = 0
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                continue  # a torn line from a crashed writer
            self.state.observe(event)
            consumed += 1
        return consumed

    def _poll_metrics(self) -> None:
        try:
            with open(self.metrics_path, "r", encoding="utf-8") as f:
                snapshot = json.load(f)
        except (OSError, json.JSONDecodeError):
            return  # keep the previous snapshot
        self.metrics_snapshot = snapshot
        self.state.update_metrics(snapshot)

    # -- rendering ------------------------------------------------------

    def render(self, width: int = 78) -> str:
        """The one-screen panel ``repro watch`` redraws."""
        s = self.state
        lines: List[str] = []
        lines.append(f"watching {self.directory}")
        age = ""
        if s.last_event_ts is not None:
            age = f"  (last event {time.time() - s.last_event_ts:.0f}s ago)"
        lines.append(
            f"status: {s.status:<12} step: "
            f"{s.step if s.step is not None else '-':<5} stage: "
            f"{s.stage or '-'}{age}"
        )
        acc = f"{s.accuracy:.3f}" if s.accuracy is not None else "-"
        compr = (
            f"{s.compression:.2f}x" if s.compression is not None else "-"
        )
        lines.append(f"accuracy: {acc}   compression: {compr}")
        if s.last_step:
            step_fields = s.last_step
            lines.append(
                f"last step: {step_fields.get('layer')} "
                f"{step_fields.get('from_bits')}b->"
                f"{step_fields.get('to_bits')}b  "
                f"valley {_fmt(step_fields.get('post_quant_accuracy'))} "
                f"peak {_fmt(step_fields.get('recovered_accuracy'))} "
                f"epochs {step_fields.get('recovery_epochs', '-')}"
            )
        if s.bit_map:
            parts = [
                f"{layer}={bits:g}b"
                for layer, bits in sorted(s.bit_map.items())
            ]
            lines.extend(_wrap("bits: ", parts, width))
        if s.expert_weights:
            top = sorted(
                s.expert_weights.items(), key=lambda kv: -kv[1]
            )[:6]
            parts = [f"{name}={w:.3f}" for name, w in top]
            lines.extend(_wrap("hedge top: ", parts, width))
        pool_bits: List[str] = []
        if s.pool_workers:
            pool_bits.append(f"workers={s.pool_workers:g}")
        for key, label in (
            ("ccq.pool_respawns", "respawns"),
            ("ccq.pool_salvaged_results", "salvaged"),
            ("ccq.pool_requeued", "requeued"),
            ("ccq.quarantined_candidates", "quarantined"),
            ("ccq.probe_pool_fallbacks", "fallbacks"),
        ):
            value = s.counters.get(key)
            if value:
                pool_bits.append(f"{label}={value:g}")
        if s.last_fanout:
            fanout = s.last_fanout
            pool_bits.append(
                f"last round {fanout.get('completed', '?')}/"
                f"{fanout.get('attempted', '?')} ok"
            )
            if fanout.get("deadline_s") is not None:
                pool_bits.append(
                    f"deadline {float(fanout['deadline_s']):.1f}s"
                )
        if pool_bits:
            lines.append("pool: " + "  ".join(pool_bits))
        recover_bits: List[str] = []
        if s.recover_active_shards is not None:
            recover_bits.append(f"shards={s.recover_active_shards:g}")
        if s.recover_allreduce_round is not None:
            recover_bits.append(
                f"allreduce-round={s.recover_allreduce_round:g}"
            )
        for key, label in (
            ("ccq.recover_pool_fallbacks", "fallbacks"),
        ):
            value = s.counters.get(key)
            if value:
                recover_bits.append(f"{label}={value:g}")
        if recover_bits:
            lines.append("recover fan-out: " + "  ".join(recover_bits))
        resilience: List[str] = []
        for key, label in (
            ("ccq.probe_divergence", "probe-div"),
            ("ccq.recovery_retry", "retries"),
            ("ccq.expert_skipped", "skipped"),
            ("ccq.fatal_divergence", "fatal-div"),
            ("ccq.checkpoint_integrity_failures", "ckpt-fail"),
        ):
            value = s.counters.get(key)
            if value is not None:
                resilience.append(f"{label}={value:g}")
        if resilience:
            lines.append("resilience: " + "  ".join(resilience))
        if s.last_warning:
            lines.append(f"last warning: {s.last_warning[:width]}")
        lines.append(f"events: {s.events_seen}")
        return "\n".join(lines)


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    try:
        return f"{float(value):.3f}"
    except (TypeError, ValueError):
        return str(value)


def _wrap(prefix: str, parts: List[str], width: int) -> List[str]:
    lines: List[str] = []
    current = prefix
    indent = " " * len(prefix)
    for part in parts:
        if current in (prefix, indent):
            candidate = current + part
        else:
            candidate = current + " " + part
        if len(candidate) > width and current not in (prefix, indent):
            lines.append(current)
            current = indent + part
        else:
            current = candidate
    if current.strip():
        lines.append(current)
    return lines


def watch(
    directory: Union[str, Path],
    interval_s: float = 1.0,
    once: bool = False,
    stream: Optional[TextIO] = None,
    follow_until_complete: bool = False,
    max_seconds: Optional[float] = None,
) -> MonitorState:
    """The ``repro watch`` loop: poll, redraw, repeat.

    ``once`` renders a single snapshot and returns (what the smoke
    tests use); ``follow_until_complete`` exits on its own when the run
    emits ``run_complete``/``interrupted``; ``max_seconds`` bounds the
    watch unconditionally.  Returns the final state either way.
    """
    stream = stream if stream is not None else sys.stdout
    monitor = RunMonitor(directory)
    started = time.monotonic()
    interactive = hasattr(stream, "isatty") and stream.isatty()
    while True:
        monitor.poll()
        panel = monitor.render()
        if interactive:
            # Clear + home, then the panel: a flicker-free-enough
            # redraw without any terminal library.
            stream.write("\x1b[2J\x1b[H" + panel + "\n")
        else:
            stream.write(panel + "\n")
        stream.flush()
        if once:
            break
        if (
            follow_until_complete
            and monitor.state.status in ("complete", "interrupted")
        ):
            break
        if (
            max_seconds is not None
            and time.monotonic() - started >= max_seconds
        ):
            break
        try:
            time.sleep(interval_s)
        except KeyboardInterrupt:
            break
    return monitor.state


class _MetricsHandler(BaseHTTPRequestHandler):
    """Serves ``/metrics`` (Prometheus text) and ``/state`` (JSON)."""

    # Set by serve_metrics on the server object.
    server: "MetricsServer"

    def do_GET(self) -> None:  # noqa: N802 (stdlib interface)
        monitor = self.server.monitor
        with self.server.lock:
            monitor.poll()
            if self.path in ("/metrics", "/"):
                body = prometheus_text(monitor.metrics_snapshot).encode(
                    "utf-8"
                )
                content_type = "text/plain; version=0.0.4"
            elif self.path == "/state":
                body = json.dumps(monitor.state.snapshot()).encode(
                    "utf-8"
                )
                content_type = "application/json"
            else:
                self.send_response(404)
                self.end_headers()
                return
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args: Any) -> None:
        pass  # scrapes are not diagnostics; stay quiet


class MetricsServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the shared monitor + its lock."""

    daemon_threads = True

    def __init__(self, address: Any, monitor: RunMonitor) -> None:
        super().__init__(address, _MetricsHandler)
        self.monitor = monitor
        self.lock = threading.Lock()


def serve_metrics(
    directory: Union[str, Path],
    port: int = 0,
    host: str = "127.0.0.1",
) -> MetricsServer:
    """Start the opt-in HTTP endpoint for one run directory.

    Binds loopback by default, picks a free port with ``port=0`` (read
    it back from ``server.server_address``).  The caller drives it:
    ``server.serve_forever()`` inline, or on a daemon thread next to a
    ``watch`` loop.  Close with ``server.shutdown()``/``.server_close()``.
    """
    return MetricsServer((host, port), RunMonitor(directory))
