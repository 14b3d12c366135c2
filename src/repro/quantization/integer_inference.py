"""Integer-arithmetic inference: validate fake-quant against real int math.

Quantization-aware training simulates low-precision execution with
*fake* quantization (float values snapped to a grid).  A deployed
accelerator instead runs integer MACs: codes multiplied in int arithmetic,
accumulated in a wide register, rescaled once at the end.  This module
executes that integer pipeline for uniformly quantized layers and checks
it reproduces the fake-quant forward — the correctness link between the
training-time simulation and the hardware the paper's Fig. 5 models.

The affine-code extraction is policy-agnostic: any quantizer whose output
levels form a uniform grid (DoReFa, WRPN, PACT, SAWB, LSQ, fixed-clip
calibration) decomposes as ``q = scale * codes + offset`` with integer
codes.  Note DoReFa's ``2^k``-level weight grid has *no* representable
zero (levels ``2m/(2^k-1) - 1``), which is why the general offset form is
used instead of a zero-point form.  The integer convolution expands as

    Σ x_q·w_q = s_x s_w Σ c_x c_w + s_x b_w Σ c_x + b_x s_w Σ_v c_w
                + b_x b_w N_v

where every Σ is exact int64 arithmetic and the ``_v`` sums run over
*valid* (non-padded) positions — padding contributes the float value 0,
not the offset.

The lowering runs on the integer kernels of :mod:`repro.nn.kernels`
(``int_im2col`` / ``int_gemm``): codes stay int64 from extraction to
the final rescale, with no float64 transport anywhere.  (The original
implementation round-tripped the codes through a float64 im2col and
``np.round`` — lossy beyond 2^53 and a pointless conversion below it.)
Validity only depends on spatial geometry, so one ``(OH*OW, KH*KW)``
mask and the weight's channel-summed codes replace the full
``(N*OH*OW, C*KH*KW)`` float mask the old path materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..nn import kernels

__all__ = [
    "AffineCode",
    "extract_affine_code",
    "integer_conv2d",
    "integer_linear",
]


@dataclass(frozen=True)
class AffineCode:
    """Integer representation of a uniformly quantized tensor."""

    codes: np.ndarray       # int64, >= 0 (anchored at the lowest level)
    scale: float
    offset: float           # value of code 0

    def dequantize(self) -> np.ndarray:
        """Back to float: ``scale * codes + offset``."""
        return self.scale * self.codes + self.offset

    @property
    def n_levels(self) -> int:
        return int(self.codes.max()) + 1


def extract_affine_code(
    quantized: np.ndarray, atol: float = 1e-9
) -> AffineCode:
    """Decompose fake-quantized values into ``scale * codes + offset``.

    Raises ``ValueError`` if the distinct values are not (numerically) a
    uniform grid — e.g. LQ-Nets' learned levels, which need a codebook
    representation (see :mod:`repro.quantization.export`) instead.
    """
    quantized = np.asarray(quantized, dtype=np.float64)
    levels = np.unique(quantized)
    if len(levels) == 1:
        return AffineCode(
            codes=np.zeros(quantized.shape, dtype=np.int64),
            scale=1.0,
            offset=float(levels[0]),
        )
    gaps = np.diff(levels)
    scale = float(gaps.min())
    ratios = gaps / scale
    if scale <= 0 or not np.allclose(ratios, np.round(ratios), atol=1e-6):
        raise ValueError("values do not lie on a uniform grid")
    offset = float(levels[0])
    codes = np.round((quantized - offset) / scale).astype(np.int64)
    if not np.allclose(codes * scale + offset, quantized, atol=atol):
        raise ValueError("grid reconstruction mismatch")
    return AffineCode(codes=codes, scale=scale, offset=offset)


def integer_conv2d(
    x: AffineCode,
    w: AffineCode,
    bias: Optional[np.ndarray] = None,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """NCHW convolution with int64 accumulation, rescaled at the end.

    ``x.codes`` is ``(N, C, H, W)``; ``w.codes`` is ``(F, C, KH, KW)``.
    Zero padding contributes the float value 0 (as in the float conv), so
    padded positions are excluded from the offset correction terms via a
    validity mask.
    """
    n = x.codes.shape[0]
    f, c, kh, kw = w.codes.shape

    # Integer-native lowering: codes travel as int64, zero padding lands
    # as code 0 and so contributes nothing to the code sums.
    cols, spatial_mask, (oh, ow) = kernels.int_im2col(
        x.codes, (kh, kw), (stride, stride), (padding, padding)
    )

    w_flat = np.ascontiguousarray(w.codes.reshape(f, -1), dtype=np.int64)

    acc = kernels.int_gemm(cols, w_flat.T)      # Σ c_x c_w  (padded -> 0)
    sum_cx = cols.sum(axis=1, keepdims=True)    # Σ c_x      (padded -> 0)
    # Offset corrections depend only on window geometry: the spatial
    # mask times the channel-summed weight codes gives Σ_valid c_w per
    # output pixel, shared by every sample in the batch.
    w_spatial = w.codes.reshape(f, c, kh * kw).sum(axis=1)
    sum_cw_valid = kernels.int_gemm(spatial_mask, w_spatial.T)
    n_valid = spatial_mask.sum(axis=1, keepdims=True) * c

    out = (
        acc.reshape(n, oh * ow, f).astype(np.float64) * (x.scale * w.scale)
        + sum_cx.reshape(n, oh * ow, 1).astype(np.float64)
        * (x.scale * w.offset)
        + sum_cw_valid.astype(np.float64)[None] * (x.offset * w.scale)
        + n_valid.astype(np.float64)[None] * (x.offset * w.offset)
    )
    out = out.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    return out


def integer_linear(
    x: AffineCode,
    w: AffineCode,
    bias: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``x_q @ w_q.T + b`` with int64 accumulation.

    ``x.codes`` is ``(N, In)``; ``w.codes`` is ``(Out, In)``.
    """
    cx = np.ascontiguousarray(x.codes, dtype=np.int64)
    cw = np.ascontiguousarray(w.codes, dtype=np.int64)
    k = cx.shape[1]
    acc = kernels.int_gemm(cx, cw.T)
    sum_cx = cx.sum(axis=1, keepdims=True)
    sum_cw = cw.sum(axis=1)[None, :]
    out = (
        acc.astype(np.float64) * (x.scale * w.scale)
        + sum_cx.astype(np.float64) * (x.scale * w.offset)
        + sum_cw.astype(np.float64) * (x.offset * w.scale)
        + float(k) * (x.offset * w.offset)
    )
    if bias is not None:
        out += bias
    return out
