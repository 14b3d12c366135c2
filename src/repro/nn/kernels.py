"""The numpy compute kernels behind the ``repro.nn`` op set.

Every compute kernel the ops bottom out in lives here as a plain
function: conv2d forward/backward, the im2col/col2im lowering pair,
float GEMM, pooling, and the integer-native kernels that the serving
compiler (:mod:`repro.serving.compile`, the one integer lowering) runs
its stages on.  :mod:`repro.nn.functional` calls them from its
``Function`` classes.

Every kernel must stay **bit-identical** to the straightforward numpy
formulation it replaces — the sliding-window im2col, the NCHW
scatter-add col2im and the int64 ``a @ b`` kept as a test-only oracle
in ``tests/nn/kernel_oracle.py`` — because the CCQ trajectory tests
and the serving engine's bit-exactness audits compare against results
computed that way.
Bit-identity on this substrate is narrower than mathematical equality:

* **Float GEMM must stay one ``np.matmul`` call on identically shaped,
  identically laid-out operands.**  BLAS picks different micro-kernels
  (and therefore different summation orders) for different shapes,
  transposes and blockings, so transposed formulations, ``einsum``
  routes and row-paneled accumulation all produce ULP-level
  divergences.  ``gemm`` is final in spirit: nothing may re-block it.
* **An integer GEMM may run in float64 when every partial sum is
  provably below 2^53.**  Every integer of magnitude up to 2^53 is a
  float64, so if ``max|a| * max|b| * K < 2^53`` no product and no
  partial sum — in any summation order BLAS picks — is ever rounded,
  and the float result cast back to int64 equals the int64 product as
  an integer.  ``int_gemm`` checks that bound in Python integers (an
  int64 bound could wrap) and keeps the exact int64 ``a @ b`` when it
  fails.
* **Data movement is legal when the result keeps its memory order.**
  Any im2col strategy that fills the identical column matrix (same
  layout, same dtype) is safe by construction.  Memory order counts
  even where the values agree: a reduction sums in its operand's
  layout, so a gradient returned channels-last instead of NCHW moves
  the sums downstream of it.  That is why ``col2im`` accumulates in a
  channels-last scratch but returns a C-contiguous NCHW array.

Every kernel entry point is timed into the active op profiler's
per-kernel table (:meth:`repro.telemetry.profiler.OpProfiler
.record_kernel`) when one is installed.  Composite kernels
(``conv2d_forward``) call leaf kernels (``im2col``, ``gemm``), so their
recorded times overlap — the table reads as a call tree flattened per
kernel, not as disjoint buckets.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, Optional, Tuple, TypeVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .autograd import Context, active_profiler

__all__ = [
    "kernel",
    "im2col",
    "col2im",
    "gemm",
    "int_gemm",
    "conv2d_forward",
    "conv2d_backward",
    "int_im2col",
    "max_pool2d_forward",
    "max_pool2d_backward",
    "avg_pool2d_forward",
    "avg_pool2d_backward",
]

_F = TypeVar("_F", bound=Callable[..., Any])

# Integers of magnitude up to 2**53 are exactly representable in float64.
_FLOAT64_EXACT_LIMIT = 2 ** 53

# int_im2col's validity masks, one per input geometry.  Read-only and
# shared by every caller of that geometry.
_SPATIAL_MASKS: Dict[Tuple, np.ndarray] = {}


@functools.lru_cache(maxsize=64)
def _gather_index(
    c: int,
    h: int,
    w: int,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Where each column-matrix cell reads from in one padded sample.

    Row ``(oy, ox)`` and column ``(ci, ky, kx)`` of the
    ``(OH*OW, C*KH*KW)`` index hold the flat offset of element
    ``(ci, oy*sh + ky, ox*sw + kx)`` in a ``(C, H+2ph, W+2pw)`` sample,
    so one ``np.take`` along the per-sample axis lays out the whole
    column matrix.  Read-only: every caller of one geometry shares it.
    """
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    hp, wp = h + 2 * ph, w + 2 * pw
    oh = (hp - kh) // sh + 1
    ow = (wp - kw) // sw + 1
    cell = (
        np.arange(c)[:, None, None] * (hp * wp)
        + np.arange(kh)[None, :, None] * wp
        + np.arange(kw)[None, None, :]
    ).reshape(-1)
    window = (
        np.arange(oh)[:, None] * (sh * wp) + np.arange(ow)[None, :] * sw
    ).reshape(-1)
    index = window[:, None] + cell[None, :]
    index.flags.writeable = False
    return index, (oh, ow)


def _float64_exact(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether ``a @ b`` computed in float64 is exact as an integer.

    ``max|a| * max|b| * K`` bounds every product and every partial sum
    of the contraction, whatever order it is summed in.  The bound is
    taken in Python integers: in int64 it could wrap (``2**32 * 2**32``
    is 0) and wrongly admit the float path.
    """
    if a.size == 0 or b.size == 0:
        return False
    a_max = max(-int(a.min()), int(a.max()))
    b_max = max(-int(b.min()), int(b.max()))
    return a_max * b_max * a.shape[1] < _FLOAT64_EXACT_LIMIT


def kernel(fn: _F) -> _F:
    """Mark a function as a kernel entry point.

    When an op profiler is installed the call is timed and recorded
    under the function's name; with no profiler the wrapper is a single
    attribute load plus a ``None`` check.
    """
    name = fn.__name__

    @functools.wraps(fn)
    def timed(*args: Any, **kwargs: Any) -> Any:
        profiler = active_profiler()
        record = getattr(profiler, "record_kernel", None)
        if record is None:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        record(name, time.perf_counter() - start)
        return out

    return timed  # type: ignore[return-value]


# -- lowering -----------------------------------------------------------


@kernel
def im2col(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    out: Optional[np.ndarray] = None,
    padded: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Lower a padded NCHW batch into a ``(N*OH*OW, C*KH*KW)`` matrix.

    Returns the column matrix, C-contiguous and owned by the
    caller, together with the output spatial size.  The matrix is
    one gather from the zero-padded batch through the geometry's
    cached index.

    ``out`` and ``padded`` are optional caller-owned buffers of
    ``x``'s dtype: ``out`` receives the column matrix (and is
    returned) and must be C-contiguous, ``padded`` the ``(N, C,
    H+2ph, W+2pw)`` zero-padded copy of ``x`` (used only when the
    padding is nonzero, and zeroed on every call).
    Left ``None``, each is allocated.
    """
    n, c, h, w = x.shape
    ph, pw = padding
    index, (oh, ow) = _gather_index(
        c, h, w, tuple(kernel), tuple(stride), (ph, pw)
    )
    if ph or pw:
        if padded is None:
            padded = np.empty((n, c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
        padded.fill(0)
        padded[:, :, ph : ph + h, pw : pw + w] = x
        x = padded
    flat = x.reshape(n, c * (h + 2 * ph) * (w + 2 * pw))
    shape = (n * oh * ow, index.shape[1])
    if out is None:
        out = np.empty(shape, dtype=x.dtype)
    elif out.shape != shape or not out.flags.c_contiguous:
        # Reshaping any other array would gather into a copy of it.
        raise ValueError(
            f"im2col: out must be a C-contiguous array of shape {shape}"
        )
    # mode="clip": into out=, the default "raise" gathers through a
    # temporary to validate the index, which is in range by construction.
    np.take(flat, index, axis=1, mode="clip",
            out=out.reshape(n, oh * ow, index.shape[1]))
    return out, (oh, ow)


@kernel
def col2im(
    dcols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    out_size: Tuple[int, int],
) -> np.ndarray:
    """Scatter-add column gradients back into an input-shaped array.

    Returns a C-contiguous NCHW array.  The kh*kw accumulation loop
    fixes the float addition order for overlapping windows; nothing may
    reorder it.  The adds run into a channels-last padded scratch, where
    a stride-1 window row is one contiguous run of OW*C elements (NCHW
    would read OW elements at a C*KH*KW stride), and one copy lays the
    sums out as NCHW.
    """
    n, c, h, w = x_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    oh, ow = out_size
    dxp = np.zeros((n, h + 2 * ph, w + 2 * pw, c), dtype=dcols.dtype)
    # (N*OH*OW, C*KH*KW) -> (N, OH, OW, C, KH, KW)
    d6 = dcols.reshape(n, oh, ow, c, kh, kw)
    for i in range(kh):
        for j in range(kw):
            dxp[:, i : i + sh * oh : sh, j : j + sw * ow : sw] += d6[
                ..., i, j
            ]
    return np.ascontiguousarray(
        dxp[:, ph : ph + h, pw : pw + w].transpose(0, 3, 1, 2)
    )


# -- GEMM ---------------------------------------------------------------


@kernel
def gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Float matrix product ``a @ b``.

    One ``np.matmul`` call, always: BLAS's summation order depends
    on operand shapes and layouts, so any re-blocking or transposed
    reformulation breaks bit-identity (see the module docstring).
    """
    return a @ b


@kernel
def int_gemm(
    a: np.ndarray,
    b: np.ndarray,
    out: Optional[np.ndarray] = None,
    work: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Integer matrix product ``a @ b`` of int64 operands, exact.

    When the operands' magnitudes keep every partial sum below
    2^53 (:func:`_float64_exact`) the product runs as one float64
    BLAS matmul, which returns the same integers; otherwise it
    stays the int64 ``a @ b``, which never reaches BLAS.

    ``out`` is an optional caller-owned C-contiguous int64 ``(M, N)``
    array for the product (returned).  ``work`` is optional 1-D
    float64 scratch for the float64 path's operand copies and product,
    at least ``a.size + b.size + M*N`` elements, allocated when
    ``None``; the int64 path never reads it.
    """
    if not _float64_exact(a, b):
        return np.matmul(a, b, out=out)
    (m, k), n = a.shape, b.shape[1]
    if work is None:
        work = np.empty(m * k + k * n + m * n)
    a_float = work[: m * k].reshape(m, k)
    b_float = work[m * k : m * k + k * n].reshape(k, n)
    product = work[m * k + k * n : m * k + k * n + m * n].reshape(m, n)
    np.copyto(a_float, a)
    np.copyto(b_float, b)
    np.matmul(a_float, b_float, out=product)
    if out is None:
        return product.astype(np.int64)
    np.copyto(out, product, casting="unsafe")
    return out


# -- convolution --------------------------------------------------------


@kernel
def conv2d_forward(
    ctx: Context,
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    f, c, kh, kw = weight.shape
    cols, (oh, ow) = im2col(x, (kh, kw), stride, padding)
    w_flat = weight.reshape(f, -1)
    out = gemm(cols, w_flat.T)
    if bias is not None:
        out += bias
    n = x.shape[0]
    ctx.save(
        cols, w_flat, x.shape, weight.shape, stride, padding, (oh, ow),
    )
    return out.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)


@kernel
def conv2d_backward(ctx: Context, grad: np.ndarray):
    cols, w_flat, x_shape, w_shape, stride, padding, out_size = ctx.saved
    f = w_shape[0]
    # (N, F, OH, OW) -> (N*OH*OW, F)
    g = grad.transpose(0, 2, 3, 1).reshape(-1, f)
    dx = None
    dw = None
    db = None
    if ctx.needs_input_grad[0]:
        dcols = gemm(g, w_flat)
        dx = col2im(
            dcols, x_shape, w_shape[2:], stride, padding, out_size
        )
    if ctx.needs_input_grad[1]:
        dw = gemm(g.T, cols).reshape(w_shape)
    if len(ctx.needs_input_grad) > 2 and ctx.needs_input_grad[2]:
        db = g.sum(axis=0)
    if ctx.needs_input_grad[2:]:
        return dx, dw, db
    return dx, dw


# -- integer-native lowering (the serving compiler's stages) ------------


@kernel
def int_im2col(
    codes: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    out: Optional[np.ndarray] = None,
    padded: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, Tuple[int, int]]:
    """Integer im2col: int64 end to end, no float transport.

    Returns ``(cols, spatial_mask, (oh, ow))``:

    * ``cols`` — the ``(N*OH*OW, C*KH*KW)`` int64 column matrix.
      Zero padding naturally lands as code 0, which contributes
      nothing to code sums (the offset corrections ride on the
      mask).
    * ``spatial_mask`` — ``(OH*OW, KH*KW)`` int64 validity mask
      (1 = the kernel cell reads a real input element, 0 = it reads
      padding).  Validity only depends on spatial geometry, so one
      ``(OH*OW, KH*KW)`` mask replaces the per-sample, per-channel
      ``(N*OH*OW, C*KH*KW)`` mask the old float path materialized.
      It is built once per geometry and shared, so it is read-only.

    ``out`` and ``padded`` are :func:`im2col`'s caller-owned buffers,
    int64 here.
    """
    codes = np.ascontiguousarray(codes, dtype=np.int64)
    n, c, h, w = codes.shape
    cols, (oh, ow) = im2col(
        codes, kernel, stride, padding, out=out, padded=padded
    )
    key = (h, w, tuple(kernel), tuple(stride), tuple(padding))
    spatial_mask = _SPATIAL_MASKS.get(key)
    if spatial_mask is None:
        ones = np.ones((1, 1, h, w), dtype=np.int64)
        built, _ = im2col(ones, kernel, stride, padding)
        built.flags.writeable = False
        # setdefault: threads that raced to build it share one mask.
        spatial_mask = _SPATIAL_MASKS.setdefault(key, built)
    return cols, spatial_mask, (oh, ow)


# -- pooling ------------------------------------------------------------


@kernel
def max_pool2d_forward(
    ctx: Context,
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    if ph or pw:
        x = np.pad(
            x, ((0, 0), (0, 0), (ph, ph), (pw, pw)),
            constant_values=-np.inf,
        )
    n, c, h, w = x.shape
    oh = (h - kh) // sh + 1
    ow = (w - kw) // sw + 1
    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    flat = windows.reshape(n, c, oh, ow, kh * kw)
    arg = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    ctx.save(arg, (n, c, h, w), kernel, stride, (ph, pw), (oh, ow))
    return out


@kernel
def max_pool2d_backward(ctx: Context, grad: np.ndarray):
    arg, padded_shape, kernel, stride, padding, out_size = ctx.saved
    n, c, h, w = padded_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    oh, ow = out_size
    dxp = np.zeros(padded_shape, dtype=grad.dtype)
    ki, kj = np.unravel_index(arg, (kh, kw))
    oi = np.arange(oh)[None, None, :, None] * sh
    oj = np.arange(ow)[None, None, None, :] * sw
    rows = (oi + ki).ravel()
    cols = (oj + kj).ravel()
    ni = np.repeat(np.arange(n), c * oh * ow)
    ci = np.tile(np.repeat(np.arange(c), oh * ow), n)
    np.add.at(dxp, (ni, ci, rows, cols), grad.ravel())
    if ph or pw:
        return (dxp[:, :, ph : h - ph, pw : w - pw],)
    return (dxp,)


@kernel
def avg_pool2d_forward(
    ctx: Context,
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    if not (ph or pw):
        windows = sliding_window_view(
            x, (kh, kw), axis=(2, 3)
        )[:, :, ::sh, ::sw]
        out = windows.mean(axis=(-1, -2))
        ctx.save(x.shape, kernel, stride, padding, out.shape[2:], None)
        return out
    # Zero-padded average with the divisor counting only real input
    # cells (torch's count_include_pad=False): an edge window
    # averages the values it actually covers, so a constant input
    # pools to the same constant everywhere.
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    windows = sliding_window_view(
        xp, (kh, kw), axis=(2, 3)
    )[:, :, ::sh, ::sw]
    ones = np.ones((h, w), dtype=x.dtype)
    ones = np.pad(ones, ((ph, ph), (pw, pw)))
    counts = sliding_window_view(ones, (kh, kw))[::sh, ::sw].sum(
        axis=(-1, -2)
    )
    out = windows.sum(axis=(-1, -2)) / counts
    ctx.save(x.shape, kernel, stride, padding, out.shape[2:], counts)
    return out


@kernel
def avg_pool2d_backward(ctx: Context, grad: np.ndarray):
    x_shape, kernel, stride, padding, out_size, counts = ctx.saved
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    oh, ow = out_size
    if counts is None:
        dx = np.zeros(x_shape, dtype=grad.dtype)
        g = grad / (kh * kw)
        for i in range(kh):
            for j in range(kw):
                dx[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw] += g
        return (dx,)
    n, c, h, w = x_shape
    dxp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=grad.dtype)
    g = grad / counts
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw] += g
    return (dxp[:, :, ph : ph + h, pw : pw + w],)
