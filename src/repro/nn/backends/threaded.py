"""The ``threaded`` backend: multi-threaded integer GEMM for serving.

Extends :class:`~repro.nn.backends.fast.FastBackend` with one change:
``int_gemm`` splits its row panels across a thread pool.  This is the
backend the serving engine's batch dimension wants — micro-batching
multiplies the im2col row count by the batch size, and numpy's
``einsum`` releases the GIL while it contracts, so panel workers
genuinely overlap on multi-core hosts.

Threading is *only* legal for the integer GEMM: int64 addition is
exact under regrouping, so any panel split produces byte-identical
results (the same argument that lets ``fast`` block its panels).  The
float GEMM stays a single BLAS call, inherited unchanged, because
float summation order is part of the bit-identity contract (see the
``base`` module docstring).

Small problems skip the pool: below ``min_rows`` rows the dispatch
overhead (~tens of microseconds per task) would dominate, so the
kernel falls back to the serial panel loop — again byte-identical.
By default the pool gets one thread per usable core (the process's CPU
affinity, at most 4), so a process pinned to one core runs the serial
loop.  Either way the bytes are identical, which is why the registry
equivalence suite (not a perf assertion) is the gate for this backend.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional

import numpy as np

from .base import kernel
from .fast import FastBackend, _INT_GEMM_PANEL

__all__ = ["ThreadedBackend"]


class ThreadedBackend(FastBackend):
    """``fast`` plus row-parallel integer GEMM."""

    name = "threaded"

    def __init__(
        self,
        num_threads: Optional[int] = None,
        min_rows: int = 128,
        scratch_capacity: int = 16,
    ) -> None:
        super().__init__(scratch_capacity=scratch_capacity)
        self._num_threads = (
            None if num_threads is None else max(1, int(num_threads))
        )
        self.min_rows = int(min_rows)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()

    @property
    def num_threads(self) -> int:
        """Panel threads; by default the usable cores, at most 4.

        Resolved on first use: the backend is built while ``repro.nn``
        is still importing, before :mod:`repro.parallel` can be.
        """
        if self._num_threads is None:
            from ...parallel.cores import usable_cores

            self._num_threads = min(4, usable_cores())
        return self._num_threads

    def _executor(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.num_threads,
                    thread_name_prefix="int-gemm",
                )
            return self._pool

    @staticmethod
    def _fill_rows(
        a: np.ndarray, b: np.ndarray, out: np.ndarray, r0: int, r1: int
    ) -> None:
        for m0 in range(r0, r1, _INT_GEMM_PANEL):
            m1 = min(m0 + _INT_GEMM_PANEL, r1)
            np.einsum("mk,kf->mf", a[m0:m1], b, out=out[m0:m1])

    @kernel
    def int_gemm(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        m = a.shape[0]
        out = np.empty((m, b.shape[1]), dtype=np.int64)
        if m < self.min_rows or self.num_threads < 2:
            self._fill_rows(a, b, out, 0, m)
            return out
        chunk = -(-m // self.num_threads)  # ceil division
        futures: List = []
        pool = self._executor()
        for r0 in range(0, m, chunk):
            futures.append(
                pool.submit(self._fill_rows, a, b, out, r0, min(r0 + chunk, m))
            )
        for fut in futures:
            fut.result()  # propagate worker exceptions
        return out
