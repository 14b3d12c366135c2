"""LQ-Nets-style learned quantization levels (Zhang et al., 2018).

LQ-Nets learns a non-uniform level set jointly with the network by
alternating a quantization-error-minimization (QEM) step with SGD.  We
reproduce the QEM half with Lloyd-Max iterations over the layer's weight
values: the level set is the fixed point of

    level_j <- mean of the values assigned to level j

which is exactly the 1-D k-means / QEM solution LQ-Nets converges to.  The
levels are refreshed on every bit-width change and periodically during
fine-tuning (every ``refresh_interval`` training forwards); between
refreshes the forward pass snaps values to the nearest learned level with
an STE gradient.  Only training (grad-mode) forwards count toward the
interval: an evaluation fits levels only when none exist, so how many
evaluations a run makes never moves its training trajectory.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn.autograd import Context, Function, is_grad_enabled
from ..nn.tensor import Tensor
from .base import ActivationQuantizer, WeightQuantizer

__all__ = ["lloyd_levels", "LQNetsWeightQuantizer", "LQNetsActivationQuantizer"]


def lloyd_levels(
    values: np.ndarray,
    n_levels: int,
    iterations: int = 12,
    symmetric: bool = False,
) -> np.ndarray:
    """Lloyd-Max level placement for a 1-D sample.

    Starts from uniform levels over the value range and alternates
    assignment / centroid updates.  ``symmetric=True`` mirrors the level
    set around zero after every update (weight distributions are roughly
    symmetric and a symmetric codebook halves the storage).
    """
    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    lo, hi = float(flat.min()), float(flat.max())
    if hi <= lo:
        return np.full(n_levels, lo)
    levels = np.linspace(lo, hi, n_levels)
    for _ in range(iterations):
        edges = (levels[1:] + levels[:-1]) / 2.0
        assignment = np.searchsorted(edges, flat)
        for j in range(n_levels):
            members = flat[assignment == j]
            if members.size:
                levels[j] = members.mean()
        levels.sort()
        if symmetric:
            levels = (levels - levels[::-1]) / 2.0
            levels.sort()
    return levels


class _NearestLevelSTE(Function):
    """Snap to the nearest codebook level; identity gradient.

    NaN stays NaN (``searchsorted`` would sort it past every edge, onto
    the top level), so a diverged input reaches the loss and its guard.
    """

    @staticmethod
    def forward(ctx: Context, x: np.ndarray, levels: np.ndarray) -> np.ndarray:
        edges = (levels[1:] + levels[:-1]) / 2.0
        out = levels[np.searchsorted(edges, x)]
        out[np.isnan(x)] = np.nan
        return out

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        return (grad,)


class LQNetsWeightQuantizer(WeightQuantizer):
    """Weight quantizer with Lloyd-refreshed learned levels."""

    def __init__(self, refresh_interval: int = 50) -> None:
        super().__init__()
        self.refresh_interval = refresh_interval
        self._levels: Optional[np.ndarray] = None
        self._calls_since_refresh = 0

    def on_bits_change(self, previous: Optional[int], new: Optional[int]) -> None:
        self._levels = None

    def refresh(self, values: np.ndarray, bits: int) -> None:
        """Re-run the QEM (Lloyd) step against the current weights."""
        self._levels = lloyd_levels(values, 2 ** bits, symmetric=True)
        self._calls_since_refresh = 0

    def quantize(self, weight: Tensor, bits: int) -> Tensor:
        training = is_grad_enabled()
        if self._levels is None or (
            training and self._calls_since_refresh >= self.refresh_interval
        ):
            self.refresh(weight.data, bits)
        if training:
            self._calls_since_refresh += 1
        return _NearestLevelSTE.apply(weight, self._levels)


class LQNetsActivationQuantizer(ActivationQuantizer):
    """Activation quantizer with learned non-negative levels."""

    def __init__(self, refresh_interval: int = 50, signed: bool = False) -> None:
        super().__init__()
        self.refresh_interval = refresh_interval
        self.signed = signed
        self._levels: Optional[np.ndarray] = None
        self._calls_since_refresh = 0

    def on_bits_change(self, previous: Optional[int], new: Optional[int]) -> None:
        self._levels = None

    def quantize(self, x: Tensor, bits: int) -> Tensor:
        training = is_grad_enabled()
        if self._levels is None or (
            training and self._calls_since_refresh >= self.refresh_interval
        ):
            values = x.data if self.signed else np.maximum(x.data, 0.0)
            self._levels = lloyd_levels(values, 2 ** bits, symmetric=self.signed)
            self._calls_since_refresh = 0
        if training:
            self._calls_since_refresh += 1
        pre = x if self.signed else x.relu()
        return _NearestLevelSTE.apply(pre, self._levels)
