"""``repro.nn.backends`` — the compute kernels behind the substrate.

A *kernel backend* supplies every low-level kernel the ``repro.nn`` op
set dispatches to: conv2d forward/backward, im2col/col2im, float GEMM,
pooling, the integer-native im2col/GEMM pair used by
:mod:`repro.quantization.integer_inference` and the serving engine,
and the fused fake-quant + conv forward.

There is one kernel set, :class:`~.base.KernelBackend`.  Three names
are registered for it — ``reference`` (the default), ``fast`` and
``threaded`` — and all three run the same kernels.  The names stay for
the callers that select kernels by name: :func:`set_default_backend`,
:func:`use_backend`, ``--kernel-backend`` on the CLI and
``ServingEngine(backend=...)``.  Selecting one is therefore
**trajectory-invariant**, and the knob is excluded from the CCQ
checkpoint fingerprint exactly like ``probe_workers``.  The kernels are
checked byte for byte against a test-only oracle
(``tests/nn/kernel_oracle.py``) in ``tests/nn/test_backends.py``; see
``docs/kernels.md`` for the interface and its exactness rules.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Tuple

from .base import KernelBackend, kernel
from .fast import FastBackend
from .reference import ReferenceBackend
from .threaded import ThreadedBackend

__all__ = [
    "KernelBackend",
    "ReferenceBackend",
    "FastBackend",
    "ThreadedBackend",
    "kernel",
    "register_backend",
    "get_backend",
    "available_backends",
    "current",
    "set_default_backend",
    "use_backend",
]

_REGISTRY: Dict[str, KernelBackend] = {}
_DEFAULT_NAME = "reference"


def register_backend(
    backend: KernelBackend, overwrite: bool = False
) -> KernelBackend:
    """Register a backend instance under its ``name``.

    A registered backend must be bit-identical to ``reference`` on
    every kernel.
    """
    name = backend.name
    if not name or name == "base":
        raise ValueError(
            f"backend {backend!r} must define a registry name"
        )
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"backend {name!r} is already registered")
    _REGISTRY[name] = backend
    return backend


def get_backend(name: str) -> KernelBackend:
    """The registered backend called ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(available_backends())
        raise KeyError(
            f"unknown kernel backend {name!r} (available: {known})"
        ) from None


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def current() -> KernelBackend:
    """The backend new ops dispatch through."""
    return _REGISTRY[_DEFAULT_NAME]


def set_default_backend(name: str) -> str:
    """Select the process-wide default backend; returns the previous
    name so callers can restore it.

    In-flight autograd graphs are unaffected: each op's context pins
    the backend that ran its forward, so its backward runs on the same
    kernels even if the default changes in between.
    """
    global _DEFAULT_NAME
    get_backend(name)  # validate before switching
    previous = _DEFAULT_NAME
    _DEFAULT_NAME = name
    return previous


@contextmanager
def use_backend(name: str) -> Iterator[KernelBackend]:
    """Temporarily select ``name`` as the default backend."""
    previous = set_default_backend(name)
    try:
        yield current()
    finally:
        set_default_backend(previous)


register_backend(ReferenceBackend())
register_backend(FastBackend())
register_backend(ThreadedBackend())
