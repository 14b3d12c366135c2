"""The ``fast`` backend name.

It runs the base kernels unchanged (:class:`~repro.nn.backends.base
.KernelBackend`).  The name stays registered for callers that select
it, such as ``ServingEngine(backend="fast")`` and
``--kernel-backend fast``.
"""

from __future__ import annotations

from .base import KernelBackend

__all__ = ["FastBackend"]


class FastBackend(KernelBackend):
    """The base kernels under the name ``fast``."""

    name = "fast"
