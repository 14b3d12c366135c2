"""Neural-network operations on :class:`~repro.nn.tensor.Tensor`.

Convolution is implemented with an im2col lowering (the standard CPU
strategy); pooling and the fused softmax-cross-entropy loss are dedicated
:class:`~repro.nn.autograd.Function` subclasses for numerical stability and
speed.  ``round_ste`` / ``floor_ste`` provide the straight-through
estimators that every quantization policy in :mod:`repro.quantization`
builds on.

The compute kernels themselves (im2col/col2im, GEMM, pooling) live in
:mod:`repro.nn.kernels`; each ``Function`` here calls them for its
forward and backward.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from . import kernels
from .autograd import Context, Function
# The lowering pair stays importable from here: the adjoint property
# tests exercise it directly.
from .kernels import col2im as _col2im, im2col  # noqa: F401
from .tensor import Tensor, as_tensor

__all__ = [
    "conv2d",
    "linear",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "relu",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "nll_loss",
    "mse_loss",
    "round_ste",
    "floor_ste",
    "im2col",
    "conv_output_size",
]

_IntPair = Union[int, Tuple[int, int]]


def _pair(value: _IntPair) -> Tuple[int, int]:
    """Normalize an int-or-pair argument to a 2-tuple."""
    if isinstance(value, tuple):
        return value
    return (value, value)


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    return (size + 2 * padding - kernel) // stride + 1


class _Conv2d(Function):
    @staticmethod
    def forward(
        ctx: Context,
        x: np.ndarray,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        stride: Tuple[int, int],
        padding: Tuple[int, int],
    ) -> np.ndarray:
        return kernels.conv2d_forward(ctx, x, weight, bias, stride, padding)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        return kernels.conv2d_backward(ctx, grad)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: _IntPair = 1,
    padding: _IntPair = 0,
) -> Tensor:
    """2-D convolution over an NCHW batch (weight is ``(F, C, KH, KW)``)."""
    stride = _pair(stride)
    padding = _pair(padding)
    if bias is None:
        return _Conv2dNoBias.apply(x, weight, stride=stride, padding=padding)
    return _Conv2d.apply(x, weight, bias, stride=stride, padding=padding)


class _Conv2dNoBias(Function):
    @staticmethod
    def forward(
        ctx: Context,
        x: np.ndarray,
        weight: np.ndarray,
        stride: Tuple[int, int],
        padding: Tuple[int, int],
    ) -> np.ndarray:
        return _Conv2d.forward(ctx, x, weight, None, stride, padding)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        dx, dw = _Conv2d.backward(ctx, grad)[:2]
        return dx, dw


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` (weight is ``(out, in)``)."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


class _MaxPool2d(Function):
    @staticmethod
    def forward(
        ctx: Context,
        x: np.ndarray,
        kernel: Tuple[int, int],
        stride: Tuple[int, int],
        padding: Tuple[int, int],
    ) -> np.ndarray:
        return kernels.max_pool2d_forward(ctx, x, kernel, stride, padding)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        return kernels.max_pool2d_backward(ctx, grad)


def max_pool2d(
    x: Tensor, kernel: _IntPair, stride: Optional[_IntPair] = None,
    padding: _IntPair = 0,
) -> Tensor:
    """2-D max pooling over an NCHW batch."""
    kernel = _pair(kernel)
    stride = kernel if stride is None else _pair(stride)
    return _MaxPool2d.apply(x, kernel=kernel, stride=stride, padding=_pair(padding))


class _AvgPool2d(Function):
    @staticmethod
    def forward(
        ctx: Context,
        x: np.ndarray,
        kernel: Tuple[int, int],
        stride: Tuple[int, int],
        padding: Tuple[int, int],
    ) -> np.ndarray:
        return kernels.avg_pool2d_forward(ctx, x, kernel, stride, padding)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        return kernels.avg_pool2d_backward(ctx, grad)


def avg_pool2d(
    x: Tensor, kernel: _IntPair, stride: Optional[_IntPair] = None,
    padding: _IntPair = 0,
) -> Tensor:
    """2-D average pooling over an NCHW batch.

    Padding is zero-padding with the divisor counting only real input
    cells (torch's ``count_include_pad=False``): edge windows average
    the values they actually cover, so a constant input pools to the
    same constant everywhere.
    """
    kernel = _pair(kernel)
    stride = kernel if stride is None else _pair(stride)
    return _AvgPool2d.apply(
        x, kernel=kernel, stride=stride, padding=_pair(padding)
    )


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over all spatial positions, returning ``(N, C)``."""
    return x.mean(axis=(2, 3))


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return x.relu()


class _LogSoftmax(Function):
    @staticmethod
    def forward(ctx: Context, x: np.ndarray, axis: int) -> np.ndarray:
        shifted = x - x.max(axis=axis, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out = shifted - log_z
        ctx.save(out, axis)
        return out

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        out, axis = ctx.saved
        softmax = np.exp(out)
        return (grad - softmax * grad.sum(axis=axis, keepdims=True),)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable ``log(softmax(x))``."""
    return _LogSoftmax.apply(x, axis=axis)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``."""
    return log_softmax(x, axis=axis).exp()


class _CrossEntropy(Function):
    """Fused log-softmax + NLL with integer class targets (mean reduced)."""

    @staticmethod
    def forward(ctx: Context, logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
        targets = targets.astype(np.int64)
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        log_probs = shifted - log_z
        n = logits.shape[0]
        losses = -log_probs[np.arange(n), targets]
        ctx.save(log_probs, targets)
        return np.asarray(losses.mean())

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        log_probs, targets = ctx.saved
        n = log_probs.shape[0]
        dx = np.exp(log_probs)
        dx[np.arange(n), targets] -= 1.0
        return (dx * (grad / n),)


def cross_entropy(logits: Tensor, targets: Union[Tensor, np.ndarray]) -> Tensor:
    """Mean cross-entropy between ``(N, K)`` logits and ``(N,)`` int targets."""
    targets = targets.data if isinstance(targets, Tensor) else np.asarray(targets)
    return _CrossEntropy.apply(logits, targets=targets)


def nll_loss(log_probs: Tensor, targets: Union[Tensor, np.ndarray]) -> Tensor:
    """Mean negative log-likelihood from precomputed log-probabilities."""
    targets = targets.data if isinstance(targets, Tensor) else np.asarray(targets)
    targets = targets.astype(np.int64)
    n = log_probs.shape[0]
    picked = log_probs[np.arange(n), targets]
    return -picked.mean()


def mse_loss(pred: Tensor, target: Union[Tensor, np.ndarray]) -> Tensor:
    """Mean squared error."""
    target = as_tensor(target)
    diff = pred - target
    return (diff * diff).mean()


class _RoundSTE(Function):
    """Round to nearest integer; identity gradient (straight-through)."""

    @staticmethod
    def forward(ctx: Context, x: np.ndarray) -> np.ndarray:
        return np.round(x)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        return (grad,)


class _FloorSTE(Function):
    """Floor; identity gradient (straight-through)."""

    @staticmethod
    def forward(ctx: Context, x: np.ndarray) -> np.ndarray:
        return np.floor(x)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        return (grad,)


def round_ste(x: Tensor) -> Tensor:
    """Straight-through rounding: quantize forward, identity backward."""
    return _RoundSTE.apply(x)


def floor_ste(x: Tensor) -> Tensor:
    """Straight-through floor."""
    return _FloorSTE.apply(x)
