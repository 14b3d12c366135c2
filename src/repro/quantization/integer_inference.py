"""Affine integer codes: the bridge from fake-quant values to int math.

Quantization-aware training simulates low-precision execution with
*fake* quantization (float values snapped to a grid).  A deployed
accelerator instead runs integer MACs on the grid's codes.  This module
decomposes a uniformly quantized tensor into those codes; the serving
compiler (:mod:`repro.serving.compile`) lowers every layer onto them
and is the repo's one integer execution path.

The extraction is policy-agnostic: any quantizer whose output levels
form a uniform grid (DoReFa, WRPN, PACT, SAWB, LSQ, fixed-clip
calibration) decomposes as ``q = scale * codes + offset`` with integer
codes.  Note DoReFa's ``2^k``-level weight grid has *no* representable
zero (levels ``2m/(2^k-1) - 1``), which is why the general offset form
is used instead of a zero-point form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["AffineCode", "extract_affine_code"]


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
