"""The core budget: how many cores this process may use, and how many
BLAS threads each pool worker gets of them.

Every ``fork``-ed worker inherits the parent's OpenBLAS thread count, so
``W`` workers on ``C`` cores would run ``W x C`` BLAS threads and
time-slice them.  :class:`~repro.parallel.pool.ProbeWorkerPool` instead
gives each worker ``max(1, min(inherited, usable_cores() // W))``
threads (:func:`blas_share`), set in the child before its ready
handshake.  The parent keeps its own count: it mostly waits while the
workers compute.

The thread count does not change a result: OpenBLAS splits a GEMM's
output among its threads, never the summation, so the float kernels
give the same bytes at 1 thread and at one per usable core
(``tests/parallel/test_cores.py`` pins this on the shapes of a CCQ
search).  The budget is as trajectory-neutral as the pool itself.

The BLAS is found the way it is loaded: the first library mapped into
this process whose path mentions ``blas`` and that exports an OpenBLAS
thread getter/setter pair.  Without one (another BLAS, no
``/proc/self/maps``) :func:`get_blas_threads` is ``None`` and
:func:`set_blas_threads` does nothing.
"""

from __future__ import annotations

import ctypes
import functools
import os
from typing import Any, Optional, Tuple

import numpy as np  # noqa: F401  (loads the BLAS this module looks for)

__all__ = [
    "usable_cores",
    "get_blas_threads",
    "set_blas_threads",
    "blas_share",
]

# (getter, setter) symbol pairs, most specific first: numpy's wheels
# ship a symbol-suffixed scipy-openblas; system builds export the
# plain names, with or without the 64-bit-integer suffix.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity, at least 1.

    Unlike ``os.cpu_count()`` this honours pinning (``taskset``,
    container cpusets).
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # no affinity API on this platform
        return max(1, os.cpu_count() or 1)


@functools.lru_cache(maxsize=None)
def _openblas() -> Optional[Tuple[Any, Any]]:
    """(getter, setter) of the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({
                line.split()[-1] for line in fh
                if "blas" in line.lower() and line.split()[-1].startswith("/")
            })
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            getter = getattr(lib, get_name, None)
            setter = getattr(lib, set_name, None)
            if getter is not None and setter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                return getter, setter
    return None


def get_blas_threads() -> Optional[int]:
    """The loaded OpenBLAS's thread count, or None when there is none."""
    found = _openblas()
    return None if found is None else int(found[0]())


def set_blas_threads(n: int) -> None:
    """Set the loaded OpenBLAS's thread count (no-op without one)."""
    if n < 1:
        raise ValueError("BLAS thread count must be >= 1")
    found = _openblas()
    if found is not None:
        found[1](int(n))


def blas_share(n_workers: int) -> Optional[int]:
    """The BLAS threads each of ``n_workers`` pool workers gets.

    ``max(1, min(inherited, usable_cores() // n_workers))``: the
    workers split the usable cores, and a parent already running fewer
    threads than the split is never raised.  None when no settable
    BLAS is loaded.
    """
    inherited = get_blas_threads()
    if inherited is None:
        return None
    return max(1, min(inherited, usable_cores() // n_workers))
