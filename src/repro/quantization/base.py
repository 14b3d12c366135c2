"""Fake-quantization core shared by all quantization policies.

Everything here follows the quantization-aware-training (QAT) recipe of the
paper's Section III-A: a quantization mapping ``Q(z; N, alpha)`` discretizes
a tensor onto the ``N``-bit grid ``C_alpha^N`` on the forward pass, while
gradients flow through a straight-through estimator (STE) on the backward
pass.  Policies (DoReFa, WRPN, PACT, SAWB, LSQ, LQ-Nets) differ only in how
the clip range / scale ``alpha`` is chosen or learned; they all reduce to
the uniform fake-quantizers defined here.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List, Optional

import numpy as np

from ..nn import functional as F
from ..nn.autograd import no_grad
from ..nn.modules import Parameter
from ..nn.tensor import Tensor

__all__ = [
    "n_levels",
    "quantize_unit_ste",
    "fake_quantize_symmetric",
    "fake_quantize_unsigned",
    "quantization_error",
    "Quantizer",
    "WeightQuantizer",
    "ActivationQuantizer",
    "IdentityQuantizer",
]


def n_levels(bits: int, signed: bool = False) -> int:
    """Number of representable levels for a ``bits``-wide code.

    Unsigned codes use all ``2^bits`` codes over ``[0, 1]``; signed codes
    use a symmetric grid with ``2^(bits-1) - 1`` magnitude steps per sign
    (the zero-symmetric convention of DoReFa/WRPN).
    """
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    if signed:
        return 2 ** (bits - 1) - 1 if bits > 1 else 1
    return 2 ** bits - 1


def quantize_unit_ste(x: Tensor, bits: int) -> Tensor:
    """Quantize a tensor already living in ``[0, 1]`` to ``2^bits`` levels.

    This is DoReFa's ``quantize_k``: ``round(x * (2^k - 1)) / (2^k - 1)``
    with a straight-through gradient.
    """
    steps = n_levels(bits, signed=False)
    return F.round_ste(x * steps) / steps


def fake_quantize_symmetric(x: Tensor, bits: int, alpha: float) -> Tensor:
    """Symmetric uniform fake-quantization onto ``{0, ±s, ..., ±alpha}``.

    ``alpha`` is the clip magnitude; values outside ``[-alpha, alpha]``
    saturate.  For ``bits = 1`` this degenerates to binarization at scale
    ``alpha``.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    steps = n_levels(bits, signed=True)
    scale = alpha / steps
    clipped = x.clip(-alpha, alpha)
    return F.round_ste(clipped / scale) * scale


def fake_quantize_unsigned(x: Tensor, bits: int, alpha: float) -> Tensor:
    """Unsigned uniform fake-quantization onto ``{0, s, ..., alpha}``."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    steps = n_levels(bits, signed=False)
    scale = alpha / steps
    clipped = x.clip(0.0, alpha)
    return F.round_ste(clipped / scale) * scale


def quantization_error(x: np.ndarray, xq: np.ndarray) -> float:
    """Squared L2 quantization error ``||x - Q(x)||^2`` (paper Eq. 3)."""
    diff = np.asarray(x) - np.asarray(xq)
    return float((diff * diff).sum())


class Quantizer:
    """What weight and activation quantizers share.

    A quantizer is attached to one layer and maps a tensor to its
    fake-quantized counterpart at the currently configured bit width;
    CCQ changes the bit width over time via :meth:`set_bits`.
    :meth:`save_state` / :meth:`restore_state` snapshot and put back
    everything a forward may read or write, which is how a probe leaves
    the quantizer exactly as it found it.
    """

    def __init__(self) -> None:
        self.bits: Optional[int] = None

    def set_bits(self, bits: Optional[int]) -> None:
        """Configure the target precision (``None`` means full precision)."""
        if bits is not None and bits < 1:
            raise ValueError(f"bits must be >= 1, got {bits}")
        previous = self.bits
        self.bits = bits
        if bits != previous:
            self.on_bits_change(previous, bits)

    def on_bits_change(
        self, previous: Optional[int], new: Optional[int]
    ) -> None:
        """Hook for policies with per-bit state (e.g. LSQ step size)."""

    def parameters(self) -> List[Parameter]:
        """Learnable quantizer parameters (empty for static policies)."""
        return []

    def save_state(self) -> Dict[str, Any]:
        """Snapshot every instance attribute, by value.

        That covers the bit width, the learnable parameters and any
        per-bit state a policy keeps: LSQ's and QIL's initialization
        flags, LQ-Nets' fitted levels and refresh counter.
        """
        return {
            name: (
                value.data.copy() if isinstance(value, Tensor)
                else copy.deepcopy(value)
            )
            for name, value in vars(self).items()
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Put a :meth:`save_state` snapshot back exactly.

        Parameters are written in place, so an optimizer holding them
        keeps valid references.  Everything else is reassigned directly,
        never through :meth:`set_bits`: its :meth:`on_bits_change` hook
        would throw the per-bit state away.
        """
        attributes = vars(self)
        for name in set(attributes) - set(state):
            delattr(self, name)
        for name, value in state.items():
            current = attributes.get(name)
            if isinstance(current, Tensor):
                current.data[...] = value
            else:
                setattr(self, name, copy.deepcopy(value))


class WeightQuantizer(Quantizer):
    """Base class for per-layer weight quantizers.

    ``__call__`` maps the layer's full-precision (shadow) weights to
    their fake-quantized counterparts at the current bit width.
    """

    def __call__(self, weight: Tensor) -> Tensor:
        if self.bits is None:
            return weight
        return self.quantize(weight, self.bits)

    def quantize_array(self, weight: np.ndarray) -> np.ndarray:
        """Fake-quantize a raw ndarray outside the autograd graph.

        The kernel-level entry point the fused quant-conv uses
        (:func:`repro.nn.kernels.fused_quant_conv2d`).
        Routes through the same Tensor path as ``__call__`` under
        ``no_grad``, so every policy override of :meth:`quantize` —
        including stateful ones — behaves identically to the unfused
        path.
        """
        with no_grad():
            return self(Tensor(weight)).data

    def quantize(self, weight: Tensor, bits: int) -> Tensor:
        raise NotImplementedError


class ActivationQuantizer(Quantizer):
    """Base class for per-layer activation quantizers (same contract)."""

    def regularization(self) -> Optional[Tensor]:
        """Optional loss term (e.g. PACT's L2 penalty on alpha)."""
        return None

    def __call__(self, x: Tensor) -> Tensor:
        if self.bits is None:
            return x
        return self.quantize(x, self.bits)

    def quantize(self, x: Tensor, bits: int) -> Tensor:
        raise NotImplementedError


class IdentityQuantizer(WeightQuantizer, ActivationQuantizer):
    """A no-op quantizer (used for layers kept at full precision)."""

    def quantize(self, x: Tensor, bits: int) -> Tensor:
        return x
