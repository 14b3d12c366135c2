"""Static (post-training) quantization: ACIQ and KL-divergence calibration.

These implement the "static quantization" branch of the paper's related
work, providing the pre-CCQ comparison points:

* **ACIQ** (Banner et al., 2018): choose the clip analytically by matching
  the empirical distribution to a Gaussian or Laplace and using the
  MSE-optimal clip for that family at the given bit width.
* **KL calibration** (Migacz, TensorRT, 2017): sweep clip thresholds over
  an activation histogram and keep the one minimizing the KL divergence
  between the clipped reference distribution and its quantized
  approximation.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from .base import n_levels

__all__ = [
    "aciq_clip",
    "kl_divergence_clip",
    "quantize_array_symmetric",
]


def quantize_array_symmetric(
    values: np.ndarray, bits: int, alpha: float
) -> np.ndarray:
    """Plain (non-autograd) symmetric uniform quantization of an ndarray."""
    steps = n_levels(bits, signed=True)
    scale = alpha / steps
    return np.clip(np.round(values / scale), -steps, steps) * scale


def _expected_mse(alpha: float, bits: int, dist: str) -> float:
    """Expected quantization MSE for a unit-scale ``dist`` clipped at alpha.

    Clip noise: ``2 * E[(|x| - alpha)^2 ; |x| > alpha]``;
    rounding noise: ``step^2 / 12`` over the kept mass.
    """
    from scipy import stats  # imported here: ``import repro`` needs no scipy

    steps = n_levels(bits, signed=True)
    step = alpha / steps
    if dist == "gauss":
        rv = stats.norm()
    elif dist == "laplace":
        rv = stats.laplace()
    else:
        raise ValueError(f"unknown distribution {dist!r}")
    # E[(x - alpha)^2 * 1{x > alpha}] via numerical integration.
    xs = np.linspace(alpha, alpha + 12.0, 4000)
    tail = np.trapezoid((xs - alpha) ** 2 * rv.pdf(xs), xs)
    kept_mass = rv.cdf(alpha) - rv.cdf(-alpha)
    return 2.0 * tail + (step ** 2) / 12.0 * kept_mass


def aciq_clip(
    values: np.ndarray,
    bits: int,
    dist: Literal["gauss", "laplace", "auto"] = "auto",
) -> float:
    """ACIQ analytic clip for ``values`` at ``bits`` precision.

    The empirical scale (std for Gaussian, mean-|x| for Laplace) maps the
    unit-family optimum onto the data.  ``dist="auto"`` picks the family
    with the higher likelihood, as the ACIQ paper suggests by comparing
    the empirical distribution against both.
    """
    from scipy import optimize, stats

    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    centered = flat - flat.mean()
    if dist == "auto":
        sigma = centered.std() or 1e-12
        b = np.mean(np.abs(centered)) or 1e-12
        ll_gauss = stats.norm(scale=sigma).logpdf(centered).sum()
        ll_laplace = stats.laplace(scale=b).logpdf(centered).sum()
        dist = "gauss" if ll_gauss >= ll_laplace else "laplace"
    if dist == "gauss":
        scale = centered.std() or 1e-12
    else:
        scale = float(np.mean(np.abs(centered))) or 1e-12
    result = optimize.minimize_scalar(
        lambda a: _expected_mse(a, bits, dist),
        bounds=(0.1, 20.0),
        method="bounded",
    )
    return float(result.x) * scale


def _quantize_histogram(ref: np.ndarray, n_quant_bins: int) -> np.ndarray:
    """Collapse a histogram onto ``n_quant_bins`` levels then re-expand."""
    n = len(ref)
    out = np.zeros_like(ref)
    edges = np.linspace(0, n, n_quant_bins + 1).astype(int)
    for lo, hi in zip(edges[:-1], edges[1:]):
        chunk = ref[lo:hi]
        nonzero = chunk > 0
        if nonzero.any():
            avg = chunk[nonzero].sum() / nonzero.sum()
            out[lo:hi][nonzero] = avg
    return out


def kl_divergence_clip(
    counts: np.ndarray,
    max_abs: float,
    bits: int,
    min_bins: int = 128,
) -> float:
    """TensorRT-style KL-minimizing clip from a magnitude histogram.

    ``counts`` is a histogram of ``|x|`` over ``[0, max_abs]``.  For every
    candidate truncation point, the tail mass is folded into the last kept
    bin, the kept histogram is quantized to ``2^bits`` levels, and the KL
    divergence between the two (normalized) distributions is measured.
    """
    counts = np.asarray(counts, dtype=np.float64)
    n_bins = len(counts)
    n_quant = 2 ** bits
    bin_width = max_abs / n_bins
    best_kl, best_i = np.inf, n_bins
    start = max(min_bins, n_quant)
    for i in range(start, n_bins + 1):
        ref = counts[:i].copy()
        ref[i - 1] += counts[i:].sum()  # fold the clipped tail in
        if ref.sum() == 0:
            continue
        cand = _quantize_histogram(counts[:i].copy(), n_quant)
        p = ref / ref.sum()
        q_sum = cand.sum()
        if q_sum == 0:
            continue
        q = cand / q_sum
        mask = p > 0
        q_safe = np.where(q[mask] > 0, q[mask], 1e-12)
        kl = float(np.sum(p[mask] * np.log(p[mask] / q_safe)))
        if kl < best_kl:
            best_kl, best_i = kl, i
    return best_i * bin_width
