"""The ``reference`` backend name: the default.

It runs the base kernels unchanged (:class:`~repro.nn.backends.base
.KernelBackend`), like every other registered name.  The independent
ground truth the kernels are checked against is the test-only oracle
in ``tests/nn/kernel_oracle.py``.
"""

from __future__ import annotations

from .base import KernelBackend

__all__ = ["ReferenceBackend"]


class ReferenceBackend(KernelBackend):
    """The base kernels under the name ``reference``."""

    name = "reference"
