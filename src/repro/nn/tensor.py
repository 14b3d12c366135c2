"""The :class:`Tensor` type: a numpy array with reverse-mode autograd.

Tensors support the arithmetic, reduction and shape operations needed to
express convolutional networks and quantization-aware training.  Gradients
flow through broadcasting correctly (broadcast dimensions are summed out on
the way back).
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from . import autograd
from .autograd import Context, Function

__all__ = ["Tensor", "as_tensor"]

_Scalar = Union[int, float]
_TensorLike = Union["Tensor", np.ndarray, _Scalar, Sequence[Any]]


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, inverting numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum away prepended dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def as_tensor(value: _TensorLike, dtype: Any = np.float64) -> "Tensor":
    """Coerce ``value`` into a :class:`Tensor` (no copy when already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


class Tensor:
    """A numpy-backed tensor participating in the autograd graph."""

    __slots__ = ("data", "grad", "requires_grad", "_grad_fn")

    def __init__(
        self,
        data: _TensorLike,
        requires_grad: bool = False,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._grad_fn: Optional[autograd._Node] = None

    # -- introspection -----------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def is_leaf(self) -> bool:
        return self._grad_fn is None

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_part = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4)}{grad_part})"

    # -- graph management ---------------------------------------------------

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Back-propagate from this tensor (see :func:`autograd.backward`)."""
        autograd.backward(self, grad)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def item(self) -> float:
        """Return the value of a single-element tensor as a python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (shared, not copied)."""
        return self.data

    def copy_(self, value: Union["Tensor", np.ndarray]) -> "Tensor":
        """In-place overwrite of the data buffer (graph-invisible)."""
        src = value.data if isinstance(value, Tensor) else np.asarray(value)
        np.copyto(self.data, src)
        return self

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: _TensorLike) -> "Tensor":
        return _Add.apply(self, as_tensor(other))

    __radd__ = __add__

    def __sub__(self, other: _TensorLike) -> "Tensor":
        return _Sub.apply(self, as_tensor(other))

    def __rsub__(self, other: _TensorLike) -> "Tensor":
        return _Sub.apply(as_tensor(other), self)

    def __mul__(self, other: _TensorLike) -> "Tensor":
        return _Mul.apply(self, as_tensor(other))

    __rmul__ = __mul__

    def __truediv__(self, other: _TensorLike) -> "Tensor":
        return _Div.apply(self, as_tensor(other))

    def __rtruediv__(self, other: _TensorLike) -> "Tensor":
        return _Div.apply(as_tensor(other), self)

    def __neg__(self) -> "Tensor":
        return _Neg.apply(self)

    def __pow__(self, exponent: _Scalar) -> "Tensor":
        return _Pow.apply(self, exponent=float(exponent))

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return _MatMul.apply(self, as_tensor(other))

    # -- comparisons (non-differentiable, return plain ndarrays) ------------

    def __gt__(self, other: _TensorLike) -> np.ndarray:
        return self.data > _raw(other)

    def __lt__(self, other: _TensorLike) -> np.ndarray:
        return self.data < _raw(other)

    def __ge__(self, other: _TensorLike) -> np.ndarray:
        return self.data >= _raw(other)

    def __le__(self, other: _TensorLike) -> np.ndarray:
        return self.data <= _raw(other)

    # -- shape ops ----------------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _Reshape.apply(self, shape=shape)

    def transpose(self, *axes: int) -> "Tensor":
        return _Transpose.apply(self, axes=axes or None)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def flatten(self, start_dim: int = 0) -> "Tensor":
        lead = self.shape[:start_dim]
        return self.reshape(*lead, -1)

    def __getitem__(self, index: Any) -> "Tensor":
        return _GetItem.apply(self, index=index)

    # -- reductions ----------------------------------------------------------

    def sum(
        self,
        axis: Optional[Union[int, Tuple[int, ...]]] = None,
        keepdims: bool = False,
    ) -> "Tensor":
        return _Sum.apply(self, axis=axis, keepdims=keepdims)

    def mean(
        self,
        axis: Optional[Union[int, Tuple[int, ...]]] = None,
        keepdims: bool = False,
    ) -> "Tensor":
        return _Mean.apply(self, axis=axis, keepdims=keepdims)

    def max(
        self,
        axis: Optional[int] = None,
        keepdims: bool = False,
    ) -> "Tensor":
        return _Max.apply(self, axis=axis, keepdims=keepdims)

    def min(
        self,
        axis: Optional[int] = None,
        keepdims: bool = False,
    ) -> "Tensor":
        return (-self).max(axis=axis, keepdims=keepdims).__neg__()

    # -- elementwise functions ------------------------------------------------

    def exp(self) -> "Tensor":
        return _Exp.apply(self)

    def log(self) -> "Tensor":
        return _Log.apply(self)

    def sqrt(self) -> "Tensor":
        return _Pow.apply(self, exponent=0.5)

    def abs(self) -> "Tensor":
        return _Abs.apply(self)

    def tanh(self) -> "Tensor":
        return _Tanh.apply(self)

    def clip(self, low: _Scalar, high: _Scalar) -> "Tensor":
        return _Clip.apply(self, low=float(low), high=float(high))

    def relu(self) -> "Tensor":
        return _ReLU.apply(self)

    def sigmoid(self) -> "Tensor":
        return _Sigmoid.apply(self)


def _raw(value: _TensorLike) -> Union[np.ndarray, _Scalar]:
    return value.data if isinstance(value, Tensor) else value


# ---------------------------------------------------------------------------
# Elementwise / arithmetic functions
# ---------------------------------------------------------------------------


class _Add(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ctx.save(a.shape, b.shape)
        return a + b

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        a_shape, b_shape = ctx.saved
        need_a, need_b = ctx.needs_input_grad
        return (
            _unbroadcast(grad, a_shape) if need_a else None,
            _unbroadcast(grad, b_shape) if need_b else None,
        )


class _Sub(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ctx.save(a.shape, b.shape)
        return a - b

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        a_shape, b_shape = ctx.saved
        need_a, need_b = ctx.needs_input_grad
        return (
            _unbroadcast(grad, a_shape) if need_a else None,
            _unbroadcast(-grad, b_shape) if need_b else None,
        )


class _Mul(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ctx.save(a, b)
        return a * b

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        a, b = ctx.saved
        need_a, need_b = ctx.needs_input_grad
        return (
            _unbroadcast(grad * b, a.shape) if need_a else None,
            _unbroadcast(grad * a, b.shape) if need_b else None,
        )


class _Div(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ctx.save(a, b)
        return a / b

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        a, b = ctx.saved
        need_a, need_b = ctx.needs_input_grad
        return (
            _unbroadcast(grad / b, a.shape) if need_a else None,
            _unbroadcast(-grad * a / (b * b), b.shape) if need_b else None,
        )


class _Neg(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        return -a

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        return (-grad,)


class _Pow(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, exponent: float) -> np.ndarray:
        ctx.save(a, exponent)
        return a ** exponent

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        a, exponent = ctx.saved
        return (grad * exponent * a ** (exponent - 1.0),)


class _Exp(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        out = np.exp(a)
        ctx.save(out)
        return out

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        (out,) = ctx.saved
        return (grad * out,)


class _Log(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        ctx.save(a)
        return np.log(a)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        (a,) = ctx.saved
        return (grad / a,)


class _Abs(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        ctx.save(a)
        return np.abs(a)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        (a,) = ctx.saved
        # Bound, not inlined: numpy writes ``grad * np.sign(a)`` into
        # the large refcount-1 temporary, whose memory order (``a``'s)
        # would then set the summation order of every reduction below.
        sign = np.sign(a)
        return (grad * sign,)


class _Tanh(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        out = np.tanh(a)
        ctx.save(out)
        return out

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        (out,) = ctx.saved
        return (grad * (1.0 - out * out),)


class _Sigmoid(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        out = 1.0 / (1.0 + np.exp(-a))
        ctx.save(out)
        return out

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        (out,) = ctx.saved
        return (grad * out * (1.0 - out),)


class _Clip(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, low: float, high: float) -> np.ndarray:
        ctx.save(a, low, high)
        return np.clip(a, low, high)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        a, low, high = ctx.saved
        mask = (a >= low) & (a <= high)
        return (grad * mask,)


class _ReLU(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        # float64, not bool: backward's ``grad * mask`` would cast a
        # bool mask through numpy's buffers, several times slower when
        # the gradient's memory order differs from the mask's.
        mask = (a > 0).astype(np.float64)
        ctx.save(mask)
        return a * mask

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        (mask,) = ctx.saved
        return (grad * mask,)


# ---------------------------------------------------------------------------
# Shape functions
# ---------------------------------------------------------------------------


class _Reshape(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
        ctx.save(a.shape)
        return a.reshape(shape)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        (orig_shape,) = ctx.saved
        return (grad.reshape(orig_shape),)


class _Transpose(Function):
    @staticmethod
    def forward(
        ctx: Context, a: np.ndarray, axes: Optional[Tuple[int, ...]]
    ) -> np.ndarray:
        ctx.save(axes, a.ndim)
        return np.transpose(a, axes)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        axes, ndim = ctx.saved
        if axes is None:
            return (np.transpose(grad),)
        inverse = np.argsort(axes)
        return (np.transpose(grad, inverse),)


class _GetItem(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, index: Any) -> np.ndarray:
        ctx.save(a.shape, index)
        return a[index]

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        shape, index = ctx.saved
        out = np.zeros(shape, dtype=grad.dtype)
        np.add.at(out, index, grad)
        return (out,)


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


def _restore_reduced(
    grad: np.ndarray,
    shape: Tuple[int, ...],
    axis: Optional[Union[int, Tuple[int, ...]]],
    keepdims: bool,
) -> np.ndarray:
    """Broadcast a reduced gradient back up to ``shape``."""
    if axis is None:
        return np.broadcast_to(grad, shape).copy()
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    if not keepdims:
        for ax in sorted(a % len(shape) for a in axes):
            grad = np.expand_dims(grad, ax)
    return np.broadcast_to(grad, shape).copy()


class _Sum(Function):
    @staticmethod
    def forward(
        ctx: Context,
        a: np.ndarray,
        axis: Optional[Union[int, Tuple[int, ...]]],
        keepdims: bool,
    ) -> np.ndarray:
        ctx.save(a.shape, axis, keepdims)
        return a.sum(axis=axis, keepdims=keepdims)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        shape, axis, keepdims = ctx.saved
        return (_restore_reduced(grad, shape, axis, keepdims),)


class _Mean(Function):
    @staticmethod
    def forward(
        ctx: Context,
        a: np.ndarray,
        axis: Optional[Union[int, Tuple[int, ...]]],
        keepdims: bool,
    ) -> np.ndarray:
        out = a.mean(axis=axis, keepdims=keepdims)
        ctx.save(a.shape, axis, keepdims, a.size // max(out.size, 1))
        return out

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        shape, axis, keepdims, count = ctx.saved
        return (_restore_reduced(grad, shape, axis, keepdims) / count,)


class _Max(Function):
    @staticmethod
    def forward(
        ctx: Context, a: np.ndarray, axis: Optional[int], keepdims: bool
    ) -> np.ndarray:
        out = a.max(axis=axis, keepdims=keepdims)
        ctx.save(a, out, axis, keepdims)
        return out

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        a, out, axis, keepdims = ctx.saved
        if axis is not None and not keepdims:
            out = np.expand_dims(out, axis)
        # Split gradient equally among ties, matching numpy argmax semantics
        # closely enough for training purposes.
        mask = a == out
        g = _restore_reduced(grad, a.shape, axis, keepdims)
        counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
        return (g * mask / counts,)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------


class _MatMul(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ctx.save(a, b)
        return a @ b

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        a, b = ctx.saved
        need_a, need_b = ctx.needs_input_grad
        if a.ndim == 2 and b.ndim == 2:
            return (
                grad @ b.T if need_a else None,
                a.T @ grad if need_b else None,
            )
        # General batched case: contract over broadcast batch dims.
        ga = gb = None
        if need_a:
            ga = _unbroadcast(grad @ np.swapaxes(b, -1, -2), a.shape)
        if need_b:
            gb = _unbroadcast(np.swapaxes(a, -1, -2) @ grad, b.shape)
        return ga, gb
