"""Test-only oracle for the kernels in ``repro.nn.kernels``.

These are the straightforward numpy formulations the kernels replaced
— a sliding-window im2col, an NCHW scatter-add col2im and the plain
int64 matmul — kept here as an independent ground truth that the
kernels must match byte for byte.
"""

from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def im2col(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """``(N*OH*OW, C*KH*KW)`` column matrix of an NCHW batch."""
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    n, c, h, w = x.shape
    oh = (h - kh) // sh + 1
    ow = (w - kw) // sw + 1
    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    windows = windows.transpose(0, 2, 3, 1, 4, 5)
    cols = windows.reshape(n * oh * ow, c * kh * kw)
    return np.ascontiguousarray(cols), (oh, ow)


def int_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """int64 ``a @ b``: exact, or wrapping exactly as int64 does."""
    return a @ b


def col2im(
    dcols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    out_size: Tuple[int, int],
) -> np.ndarray:
    """Scatter-add of a column gradient into NCHW, kernel offsets outermost.

    The adds run in the padded NCHW array itself, so with padding the
    result is a strided view of it.
    """
    n, c, h, w = x_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    oh, ow = out_size
    dxp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=dcols.dtype)
    # (N*OH*OW, C*KH*KW) -> (N, OH, OW, C, KH, KW) -> (N, C, KH, KW, OH, OW)
    d6 = dcols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw] += d6[
                :, :, i, j
            ]
    if ph or pw:
        return dxp[:, :, ph : ph + h, pw : pw + w]
    return dxp
