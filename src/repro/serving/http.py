"""Stdlib HTTP frontend for a :class:`~repro.serving.engine.ServingEngine`.

Endpoints:

``POST /predict``
    Body ``{"inputs": <nested list>}`` — either one sample of the
    engine's per-sample shape or a batch ``(N, *shape)``.  Each sample
    becomes one engine request (so concurrent HTTP clients share
    micro-batches).  Response ``{"outputs": [...]}``; a failed sample
    carries its structured error in place of an output and flips the
    top-level ``"ok"`` flag.

``GET /metrics``
    The engine's metrics registry in Prometheus text format.

``GET /healthz``
    ``{"status": "ok"}`` plus the compiled plan summary.

The server is a ``ThreadingHTTPServer``: each connection blocks only
its own handler thread while its futures resolve, which is exactly the
closed-loop client shape the micro-batcher is designed to coalesce.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

import numpy as np

from ..telemetry import prometheus_text

__all__ = ["make_server"]


def make_server(
    engine: Any,
    registry: Any,
    host: str = "127.0.0.1",
    port: int = 0,
    request_timeout: float = 60.0,
) -> ThreadingHTTPServer:
    """Build (but do not start) the HTTP server for ``engine``.

    ``registry`` is the ``MetricsRegistry`` backing the engine's
    telemetry (served at ``/metrics``).  ``port=0`` binds a free port;
    read it back from ``server.server_address``.
    """

    class Handler(BaseHTTPRequestHandler):
        def _send(self, code: int, body: bytes, ctype: str) -> None:
            self.send_response(code)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _send_json(self, code: int, payload: Any) -> None:
            self._send(
                code, json.dumps(payload).encode("utf-8"),
                "application/json",
            )

        def do_GET(self) -> None:  # noqa: N802 (http.server API)
            if self.path == "/metrics":
                body = prometheus_text(registry.snapshot()).encode("utf-8")
                self._send(200, body, "text/plain; version=0.0.4")
            elif self.path == "/healthz":
                payload = {"status": "ok"}
                if hasattr(engine.compiled, "summary"):
                    payload["model"] = engine.compiled.summary()
                self._send_json(200, payload)
            else:
                self._send_json(404, {"error": f"no route {self.path}"})

        def do_POST(self) -> None:  # noqa: N802 (http.server API)
            if self.path != "/predict":
                self._send_json(404, {"error": f"no route {self.path}"})
                return
            try:
                length = int(self.headers.get("Content-Length", "0"))
                if length < 0:  # rfile.read(-1) would wait for EOF
                    raise ValueError(f"negative Content-Length {length}")
                payload = json.loads(self.rfile.read(length) or b"{}")
                raw = np.asarray(payload["inputs"], dtype=np.float64)
            except (KeyError, ValueError, TypeError) as exc:
                self._send_json(
                    400, {"ok": False, "error": f"bad request body: {exc}"}
                )
                return
            shape = tuple(engine.compiled.input_shape)
            batch = raw[None] if raw.shape == shape else raw
            if batch.ndim < 1 or batch.shape[0] == 0:
                self._send_json(
                    400, {"ok": False, "error": "empty input batch"}
                )
                return
            futures = [engine.submit(sample) for sample in batch]
            outputs = []
            ok = True
            for future in futures:
                try:
                    outputs.append(
                        future.result(timeout=request_timeout).tolist()
                    )
                except Exception as exc:
                    ok = False
                    err = (
                        exc.to_dict() if hasattr(exc, "to_dict")
                        else {"error": str(exc)}
                    )
                    outputs.append(err)
            self._send_json(200 if ok else 422, {"ok": ok, "outputs": outputs})

        def log_message(self, fmt: str, *log_args: Any) -> None:
            pass  # access logging is the telemetry registry's job

    return ThreadingHTTPServer((host, port), Handler)
