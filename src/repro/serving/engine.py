"""Micro-batching async serving runtime for compiled integer models.

A :class:`ServingEngine` owns a request queue and one worker thread.
Clients call :meth:`~ServingEngine.submit` (returns a
``concurrent.futures.Future``) or the blocking
:meth:`~ServingEngine.predict`; the worker assembles *micro-batches*
and runs them through the compiled plan in a single integer forward:

- **flush on size** — a batch dispatches as soon as ``max_batch_size``
  requests are waiting;
- **flush on deadline** — an under-full batch dispatches once the
  oldest queued request has waited ``max_wait_ms``, so a lone request
  never waits for traffic that isn't coming.  It takes along every
  request already queued behind it, up to ``max_batch_size``.

Because the compiled plan carries nothing from one forward to the next
(its scratch workspace is per thread and rewritten by every forward)
and its integer kernels are regrouping-invariant, a batched forward is
*bitwise identical* to running each request alone — the property the
concurrency tests pin down.  Requests are validated (shape,
finiteness) in the worker loop; a poisoned request fails *its own*
future with a structured :class:`RequestError` while the batch's
healthy neighbors are served normally.  If a whole batch forward
raises, the engine retries each request solo so one bad apple cannot
take down its batch-mates.

Telemetry (all unlabeled, so benchmark trajectories can fold them):

- ``serving.queue_depth`` (gauge) — queue length after each dequeue
- ``serving.batch_size`` (histogram) — dispatched micro-batch sizes
- ``serving.request_latency_seconds`` (histogram) — submit-to-response
- ``serving.requests_total`` / ``serving.batches_total`` (counters)
- ``serving.request_failures`` (counter) — per-request faults
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from concurrent.futures import Future
from typing import Any, Dict, List, Optional

import numpy as np

from ..telemetry import NULL_TELEMETRY

__all__ = ["RequestError", "ServingEngine"]


class RequestError(RuntimeError):
    """A structured per-request serving failure.

    Set on the offending request's future only; the engine keeps
    serving.  ``to_dict()`` is the wire form the HTTP frontend and the
    load generator report.
    """

    def __init__(self, message: str, request_id: Optional[int] = None) -> None:
        super().__init__(message)
        self.message = message
        self.request_id = request_id

    def to_dict(self) -> Dict[str, Any]:
        return {"error": self.message, "request_id": self.request_id}


class _Request:
    __slots__ = ("x", "future", "enqueued", "id")

    def __init__(self, x: np.ndarray, request_id: int) -> None:
        self.x = x
        self.future: Future = Future()
        self.enqueued = time.perf_counter()
        self.id = request_id


_SHUTDOWN = object()


class ServingEngine:
    """Batched async inference over a :class:`~repro.serving.compile
    .CompiledModel` (or any object with ``forward(batch)`` and
    ``input_shape``).

    Parameters
    ----------
    max_batch_size:
        Flush threshold; also the largest batch a single forward sees.
    max_wait_ms:
        Deadline for an under-full batch, measured from the enqueue
        time of its oldest request.
    backend:
        Ignored.  There is one kernel set (:mod:`repro.nn.kernels`);
        the keyword is still accepted because ``perfbench/rep.py``
        passes ``backend="fast"``, and the next change to the
        benchmark drops it.
    telemetry:
        A ``Telemetry`` facade; defaults to the null sink.
    """

    def __init__(
        self,
        compiled: Any,
        max_batch_size: int = 8,
        max_wait_ms: float = 2.0,
        backend: Optional[str] = None,
        telemetry: Any = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        self.compiled = compiled
        self.max_batch_size = int(max_batch_size)
        self.max_wait = float(max_wait_ms) / 1000.0
        telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._m_requests = telemetry.counter("serving.requests_total")
        self._m_failures = telemetry.counter("serving.request_failures")
        self._m_batches = telemetry.counter("serving.batches_total")
        self._m_queue_depth = telemetry.gauge("serving.queue_depth")
        self._m_batch_size = telemetry.histogram("serving.batch_size")
        self._m_latency = telemetry.histogram(
            "serving.request_latency_seconds"
        )
        self._queue: "queue.Queue" = queue.Queue()
        self._ids = itertools.count()
        self._closed = False
        self._abort = False
        self._lock = threading.Lock()
        self._worker = threading.Thread(
            target=self._loop, name="serving-worker", daemon=True
        )
        self._worker.start()

    # -- client API ---------------------------------------------------------

    def submit(self, x: np.ndarray) -> Future:
        """Enqueue one request (a single sample, no batch dim)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("engine is closed")
            req = _Request(np.asarray(x, dtype=np.float64), next(self._ids))
            self._queue.put(req)
        self._m_requests.inc()
        self._m_queue_depth.set(self._queue.qsize())
        return req.future

    def predict(self, x: np.ndarray, timeout: float = 60.0) -> np.ndarray:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(x).result(timeout=timeout)

    def close(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the worker.  With ``drain`` (default) every queued
        request is served first; otherwise pending requests fail with
        a structured shutdown error."""
        with self._lock:
            if self._closed:
                self._worker.join(timeout=timeout)
                return
            self._closed = True
            if not drain:
                self._abort = True
            self._queue.put(_SHUTDOWN)
        self._worker.join(timeout=timeout)

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- worker loop --------------------------------------------------------

    def _loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                break
            batch: List[_Request] = [item]
            deadline = item.enqueued + self.max_wait
            stop = False
            while len(batch) < self.max_batch_size:
                remaining = deadline - time.perf_counter()
                try:
                    if remaining > 0:
                        nxt = self._queue.get(timeout=remaining)
                    else:
                        # Past the deadline: flush now, but take what is
                        # already queued.  Left behind, each of those
                        # requests would miss its own deadline and go
                        # out alone, and a backlog would never clear.
                        nxt = self._queue.get_nowait()
                except queue.Empty:
                    break
                if nxt is _SHUTDOWN:
                    stop = True
                    break
                batch.append(nxt)
            self._m_queue_depth.set(self._queue.qsize())
            self._run_batch(batch)
            if stop:
                break
        # Worker exiting: fail anything still queued (non-drain close).
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not _SHUTDOWN:
                self._fail(item, "engine shut down before request ran")

    def _validate(self, req: _Request) -> Optional[str]:
        expected = tuple(self.compiled.input_shape)
        if req.x.shape != expected:
            return (
                f"bad input shape {req.x.shape}; this engine serves "
                f"per-sample shape {expected}"
            )
        if not np.all(np.isfinite(req.x)):
            return "input contains non-finite values"
        return None

    def _run_batch(self, batch: List[_Request]) -> None:
        self._m_batches.inc()
        self._m_batch_size.observe(len(batch))
        if self._abort:
            for req in batch:
                self._fail(req, "engine shut down before request ran")
            return
        valid: List[_Request] = []
        for req in batch:
            problem = self._validate(req)
            if problem is None:
                valid.append(req)
            else:
                self._fail(req, problem)
        if not valid:
            return
        try:
            outs = self.compiled.forward(np.stack([r.x for r in valid]))
        except Exception:
            # Batch-level fault: retry each request alone so one
            # poisoned request cannot fail its batch-mates.
            for req in valid:
                try:
                    out = self.compiled.forward(req.x[None])
                except Exception as exc:
                    self._fail(req, str(exc))
                else:
                    self._complete(req, out[0])
            return
        for req, out in zip(valid, outs):
            self._complete(req, out)

    def _complete(self, req: _Request, out: np.ndarray) -> None:
        self._m_latency.observe(time.perf_counter() - req.enqueued)
        req.future.set_result(np.ascontiguousarray(out))

    def _fail(self, req: _Request, message: str) -> None:
        self._m_failures.inc()
        self._m_latency.observe(time.perf_counter() - req.enqueued)
        req.future.set_exception(RequestError(message, request_id=req.id))
