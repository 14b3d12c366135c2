"""Reverse-mode automatic differentiation engine.

This module implements a minimal but complete tape-based autograd system on
top of numpy.  Every differentiable operation is a subclass of
:class:`Function`; calling ``Function.apply(...)`` records the op on the
implicit tape (as a ``grad_fn`` link on the output tensor) so that
``Tensor.backward()`` can later traverse the graph in reverse topological
order and accumulate gradients.

The design intentionally mirrors the PyTorch ``torch.autograd.Function``
contract (``forward``/``backward`` pairs with a context object for stashing
intermediates) because the paper's reference implementation is a PyTorch
code base: keeping the same contract makes the quantization straight-through
estimators in :mod:`repro.quantization` read exactly like their PyTorch
counterparts.
"""

from __future__ import annotations

import time
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Function",
    "Context",
    "backward",
    "no_grad",
    "is_grad_enabled",
    "inference_dispatch_count",
    "set_active_profiler",
    "active_profiler",
]


class _GradMode:
    """Process-wide switch for gradient recording (cheap thread-unsafe flag)."""

    enabled: bool = True
    # How many Function.apply calls took the inference fast path since
    # process start.  Monotonic; read it before/after a region to count
    # the fast-path ops that region executed (the probe engine's tests
    # and telemetry do exactly that).
    inference_dispatches: int = 0
    # The installed op profiler (repro.telemetry.profiler.OpProfiler),
    # or None.  Checked with one attribute load per dispatch so the
    # un-profiled path pays nothing measurable.
    profiler: Optional[Any] = None


def set_active_profiler(profiler: Optional[Any]) -> Optional[Any]:
    """Install ``profiler`` as the dispatch hook; returns the previous
    one so nested installs can restore it."""
    previous = _GradMode.profiler
    _GradMode.profiler = profiler
    return previous


def active_profiler() -> Optional[Any]:
    """The currently installed op profiler, if any."""
    return _GradMode.profiler


def inference_dispatch_count() -> int:
    """Total ops dispatched through the no-grad fast path so far."""
    return _GradMode.inference_dispatches


def is_grad_enabled() -> bool:
    """Return whether operations are currently being recorded on the tape."""
    return _GradMode.enabled


class no_grad:
    """Context manager disabling graph recording, like ``torch.no_grad``.

    Used heavily by the CCQ competition stage, whose probes are pure
    feed-forward validation passes and must not pay autograd overhead.
    """

    def __enter__(self) -> "no_grad":
        self._prev = _GradMode.enabled
        _GradMode.enabled = False
        return self

    def __exit__(self, *exc: Any) -> None:
        _GradMode.enabled = self._prev


class Context:
    """Per-call scratch space passed to ``Function.forward``/``backward``.

    ``saved`` holds whatever the forward pass needs to stash for the
    backward pass (raw ndarrays, shapes, python scalars -- anything).
    """

    __slots__ = ("saved", "needs_input_grad")

    def __init__(self) -> None:
        self.saved: Tuple[Any, ...] = ()
        self.needs_input_grad: Tuple[bool, ...] = ()

    def save(self, *items: Any) -> None:
        """Stash values for use in the backward pass."""
        self.saved = items


class _InferenceContext(Context):
    """The context handed to ``forward`` on the no-grad fast path.

    ``save`` is a no-op: nothing will ever run ``backward``, so stashing
    intermediates (im2col matrices, pre-activation copies, ...) would
    only keep large arrays alive until garbage collection.  A single
    shared instance is reused for every fast-path call — ``forward``
    implementations never read back what they saved, so per-call
    isolation buys nothing.
    """

    __slots__ = ()

    def save(self, *items: Any) -> None:
        pass


_INFERENCE_CTX = _InferenceContext()

# repro.nn.tensor.Tensor, bound by the first dispatch: tensor.py imports
# this module, so it cannot be imported at the top.
Tensor: Any = None


class Function:
    """Base class for differentiable operations.

    Subclasses implement two static methods::

        @staticmethod
        def forward(ctx, *array_args, **kwargs) -> np.ndarray

        @staticmethod
        def backward(ctx, grad_output) -> tuple of (np.ndarray | None)

    ``forward`` receives raw ndarrays (tensor args are unwrapped) plus any
    keyword configuration, and returns a raw ndarray.  ``backward`` receives
    the gradient w.r.t. the output and must return one gradient (or None)
    per *tensor* positional input.

    Each side does only the work a result reads.  ``backward`` returns
    None for an input whose ``ctx.needs_input_grad`` entry is False,
    and ``forward`` saves its inputs rather than values that only
    ``backward`` reads (a sign, a mask), so a ``no_grad`` forward, which
    discards what it saves, never computes them.
    """

    @staticmethod
    def forward(ctx: Context, *args: Any, **kwargs: Any) -> np.ndarray:
        raise NotImplementedError

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray) -> Any:
        raise NotImplementedError

    @classmethod
    def apply(cls, *args: Any, **kwargs: Any) -> "Tensor":
        """Run ``forward`` and, if grad is enabled, record the op.

        With grad disabled (``no_grad``) the call takes an inference
        fast path: no per-input bookkeeping, no ``needs_input_grad``
        computation, and a shared no-op context so ``forward``'s
        ``ctx.save(...)`` discards its arguments instead of pinning
        them until GC.  This is the substrate half of the CCQ probe
        engine's speedup — evaluation passes build no graph at all.
        """
        global Tensor
        if Tensor is None:
            from .tensor import Tensor

        profiler = _GradMode.profiler
        if not _GradMode.enabled:
            _GradMode.inference_dispatches += 1
            raw = [a.data if isinstance(a, Tensor) else a for a in args]
            if profiler is None:
                return Tensor(cls.forward(_INFERENCE_CTX, *raw, **kwargs))
            start = time.perf_counter()
            out_data = cls.forward(_INFERENCE_CTX, *raw, **kwargs)
            profiler.record(
                cls, raw, out_data, time.perf_counter() - start
            )
            return Tensor(out_data)

        ctx = Context()
        tensor_args: List[Optional[Tensor]] = []
        raw_args: List[Any] = []
        for arg in args:
            if isinstance(arg, Tensor):
                tensor_args.append(arg)
                raw_args.append(arg.data)
            else:
                tensor_args.append(None)
                raw_args.append(arg)

        ctx.needs_input_grad = tuple(
            t is not None and t.requires_grad for t in tensor_args
        )
        if profiler is None:
            out_data = cls.forward(ctx, *raw_args, **kwargs)
        else:
            start = time.perf_counter()
            out_data = cls.forward(ctx, *raw_args, **kwargs)
            profiler.record(
                cls, raw_args, out_data, time.perf_counter() - start
            )

        requires_grad = is_grad_enabled() and any(ctx.needs_input_grad)
        out = Tensor(out_data, requires_grad=requires_grad)
        if requires_grad:
            out._grad_fn = _Node(cls, ctx, tensor_args)
        return out


class _Node:
    """A recorded operation on the tape: the edge set of the graph."""

    __slots__ = ("fn", "ctx", "inputs")

    def __init__(
        self,
        fn: type,
        ctx: Context,
        inputs: Sequence[Optional["Tensor"]],
    ) -> None:
        self.fn = fn
        self.ctx = ctx
        self.inputs = inputs


def backward(root: "Tensor", grad: Optional[np.ndarray] = None) -> None:
    """Run reverse-mode AD from ``root``, accumulating into ``.grad``.

    Gradients are accumulated (summed) into every reachable leaf tensor
    that has ``requires_grad=True``.  Non-leaf intermediate gradients are
    kept only transiently.
    """
    if grad is None:
        if root.data.size != 1:
            raise RuntimeError(
                "backward() without an explicit gradient requires a scalar "
                f"output, got shape {root.data.shape}"
            )
        grad = np.ones_like(root.data)

    # Topological order via iterative DFS (recursion would overflow on
    # deep ResNet graphs).
    topo: List["Tensor"] = []
    visited = set()
    stack: List[Tuple["Tensor", bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        if node._grad_fn is not None:
            for parent in node._grad_fn.inputs:
                if parent is not None and id(parent) not in visited:
                    stack.append((parent, False))

    grads = {id(root): grad}
    for node in reversed(topo):
        node_grad = grads.pop(id(node), None)
        if node_grad is None:
            continue
        if node._grad_fn is None:
            if node.requires_grad:
                if node.grad is None:
                    node.grad = node_grad.copy()
                else:
                    node.grad += node_grad
            continue

        fn, ctx, inputs = (
            node._grad_fn.fn,
            node._grad_fn.ctx,
            node._grad_fn.inputs,
        )
        input_grads = fn.backward(ctx, node_grad)
        if not isinstance(input_grads, tuple):
            input_grads = (input_grads,)
        n_tensors = sum(1 for t in inputs if t is not None)
        if len(input_grads) != n_tensors:
            raise RuntimeError(
                f"{fn.__name__}.backward returned {len(input_grads)} grads "
                f"for {n_tensors} tensor inputs"
            )
        grad_iter = iter(input_grads)
        for parent in inputs:
            if parent is None:
                continue
            g = next(grad_iter)
            if g is None or not parent.requires_grad:
                continue
            # NB: np.ascontiguousarray would promote 0-d grads to 1-d and
            # break scalar parameters (e.g. PACT's alpha); asarray keeps
            # the dimensionality intact.
            g = np.asarray(g, dtype=parent.data.dtype)
            if g.shape != parent.data.shape:
                raise RuntimeError(
                    f"{fn.__name__}.backward produced grad of shape "
                    f"{g.shape} for input of shape {parent.data.shape}"
                )
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + g
            else:
                grads[key] = g
