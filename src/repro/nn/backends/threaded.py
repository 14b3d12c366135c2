"""The ``threaded`` backend name.

Like ``fast``, which it subclasses, it runs the base kernels unchanged
(:class:`~repro.nn.backends.base.KernelBackend`).  The name stays
registered because ``repro serve`` and ``repro bench-serve`` default to
it.
"""

from __future__ import annotations

from .fast import FastBackend

__all__ = ["ThreadedBackend"]


class ThreadedBackend(FastBackend):
    """The base kernels under the name ``threaded``."""

    name = "threaded"
