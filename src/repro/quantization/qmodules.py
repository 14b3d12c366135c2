"""Quantized layer wrappers and model conversion.

:func:`quantize_model` walks a float network and swaps every ``Conv2d`` /
``Linear`` for a :class:`QuantConv2d` / :class:`QuantLinear` that shares
the *same* parameter tensors (shadow full-precision weights) and attaches
policy-specific weight/activation quantizers.  Per-layer precision is then
a pair of attributes (``w_bits`` / ``a_bits``) that CCQ reconfigures as
the competition proceeds — including down to very low precision for the
first and last layers, which is one of the paper's headline abilities.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn import functional as F
from ..nn.modules import Conv2d, Linear, Module, Parameter
from ..nn.tensor import Tensor
from .base import ActivationQuantizer, WeightQuantizer
from .policy import QuantPolicy, get_policy

__all__ = [
    "QuantConv2d",
    "QuantLinear",
    "QuantModule",
    "quantize_model",
    "quantized_layers",
    "set_uniform_bits",
    "get_bit_config",
    "set_bit_config",
    "collect_quantizer_parameters",
    "collect_regularization",
    "state_digest",
]


class QuantModule(Module):
    """Mixin interface shared by all quantized layers."""

    weight: Parameter
    weight_quantizer: WeightQuantizer
    act_quantizer: ActivationQuantizer

    @property
    def w_bits(self) -> Optional[int]:
        """Weight precision in bits (``None`` = full precision)."""
        return self.weight_quantizer.bits

    @w_bits.setter
    def w_bits(self, bits: Optional[int]) -> None:
        self.weight_quantizer.set_bits(bits)

    @property
    def a_bits(self) -> Optional[int]:
        """Activation (layer input) precision in bits."""
        return self.act_quantizer.bits

    @a_bits.setter
    def a_bits(self, bits: Optional[int]) -> None:
        self.act_quantizer.set_bits(bits)

    def quantizer_parameters(self) -> List[Parameter]:
        """Learnable quantizer state (PACT alpha, LSQ steps, ...)."""
        return [
            *self.weight_quantizer.parameters(),
            *self.act_quantizer.parameters(),
        ]

    def _register_quantizer_parameters(self) -> None:
        """Expose quantizer parameters through the module tree.

        Registering them as named parameters makes ``state_dict``
        snapshots (used by CCQ's collaboration stage) carry PACT alphas
        and LSQ step sizes alongside the weights.
        """
        for i, p in enumerate(self.weight_quantizer.parameters()):
            setattr(self, f"wq_param_{i}", p)
        for i, p in enumerate(self.act_quantizer.parameters()):
            setattr(self, f"aq_param_{i}", p)

    def weight_size_bits(self) -> float:
        """Storage cost of this layer's weights at the current precision."""
        bits = self.w_bits if self.w_bits is not None else 32
        return float(self.weight.size * bits)

    def quantized_weight(self) -> Tensor:
        """The fake-quantized weights at the current precision."""
        return self.weight_quantizer(self.weight)


class QuantConv2d(QuantModule):
    """Convolution with fake-quantized weights and input activations."""

    def __init__(
        self,
        conv: Conv2d,
        weight_quantizer: WeightQuantizer,
        act_quantizer: ActivationQuantizer,
    ) -> None:
        super().__init__()
        self.in_channels = conv.in_channels
        self.out_channels = conv.out_channels
        self.kernel_size = conv.kernel_size
        self.stride = conv.stride
        self.padding = conv.padding
        self.weight = conv.weight
        self.bias = conv.bias
        self.weight_quantizer = weight_quantizer
        self.act_quantizer = act_quantizer
        self._register_quantizer_parameters()

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(
            self.act_quantizer(x), self.quantized_weight(), self.bias,
            stride=self.stride, padding=self.padding,
        )

    def __repr__(self) -> str:
        return (
            f"QuantConv2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, w_bits={self.w_bits}, "
            f"a_bits={self.a_bits})"
        )


class QuantLinear(QuantModule):
    """Linear layer with fake-quantized weights and input activations."""

    def __init__(
        self,
        fc: Linear,
        weight_quantizer: WeightQuantizer,
        act_quantizer: ActivationQuantizer,
    ) -> None:
        super().__init__()
        self.in_features = fc.in_features
        self.out_features = fc.out_features
        self.weight = fc.weight
        self.bias = fc.bias
        self.weight_quantizer = weight_quantizer
        self.act_quantizer = act_quantizer
        self._register_quantizer_parameters()

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(
            self.act_quantizer(x), self.quantized_weight(), self.bias
        )

    def __repr__(self) -> str:
        return (
            f"QuantLinear({self.in_features}, {self.out_features}, "
            f"w_bits={self.w_bits}, a_bits={self.a_bits})"
        )


def quantize_model(
    model: Module,
    policy: "QuantPolicy | str",
    skip: Sequence[str] = (),
) -> Module:
    """Swap every Conv2d/Linear in ``model`` for its quantized wrapper.

    The conversion happens in place (and the model is also returned).  The
    first converted layer — the one consuming the raw network input — gets
    a *signed* activation quantizer since normalized images are zero-
    centred; every later layer sits behind a ReLU and uses the unsigned
    quantizer of the policy.  ``skip`` lists dotted module names to leave
    at full precision entirely (not wrapped).
    """
    if isinstance(policy, str):
        policy = get_policy(policy)
    first = True
    for parent_name, parent in list(model.named_modules()):
        for child_name, child in list(parent._modules.items()):
            full_name = f"{parent_name}.{child_name}" if parent_name else child_name
            if full_name in skip or isinstance(child, QuantModule):
                continue
            if isinstance(child, Conv2d):
                wrapped: QuantModule = QuantConv2d(
                    child,
                    policy.make_weight_quantizer(),
                    policy.make_act_quantizer(first),
                )
            elif isinstance(child, Linear):
                wrapped = QuantLinear(
                    child,
                    policy.make_weight_quantizer(),
                    policy.make_act_quantizer(first),
                )
            else:
                continue
            first = False
            parent.add_module(child_name, wrapped)
    return model


def quantized_layers(model: Module) -> List[Tuple[str, QuantModule]]:
    """All quantized layers of ``model`` in forward traversal order."""
    return [
        (name, module)
        for name, module in model.named_modules()
        if isinstance(module, QuantModule)
    ]


def set_uniform_bits(
    model: Module,
    w_bits: Optional[int],
    a_bits: Optional[int],
    first_last_w_bits: "int | None | str" = "same",
    first_last_a_bits: "int | None | str" = "same",
) -> None:
    """Configure a uniform precision, optionally overriding first/last.

    Passing ``first_last_w_bits=None`` reproduces the common baseline
    convention of keeping the first and last layers at full precision
    (the ``fp-3b-fp`` patterns of Table I).
    """
    layers = quantized_layers(model)
    for i, (_, layer) in enumerate(layers):
        is_edge = i in (0, len(layers) - 1)
        layer.w_bits = (
            w_bits if not is_edge or first_last_w_bits == "same"
            else first_last_w_bits
        )
        layer.a_bits = (
            a_bits if not is_edge or first_last_a_bits == "same"
            else first_last_a_bits
        )


def get_bit_config(model: Module) -> Dict[str, Tuple[Optional[int], Optional[int]]]:
    """Snapshot ``{layer_name: (w_bits, a_bits)}`` for the whole model."""
    return {
        name: (layer.w_bits, layer.a_bits)
        for name, layer in quantized_layers(model)
    }


def set_bit_config(
    model: Module,
    config: Dict[str, Tuple[Optional[int], Optional[int]]],
) -> None:
    """Apply a configuration produced by :func:`get_bit_config`."""
    layers = dict(quantized_layers(model))
    for name, (w_bits, a_bits) in config.items():
        if name not in layers:
            raise KeyError(f"no quantized layer named {name!r}")
        layers[name].w_bits = w_bits
        layers[name].a_bits = a_bits


def collect_quantizer_parameters(model: Module) -> List[Parameter]:
    """All learnable quantizer parameters in the model."""
    params: List[Parameter] = []
    for _, layer in quantized_layers(model):
        params.extend(layer.quantizer_parameters())
    return params


def collect_regularization(model: Module) -> Optional[Tensor]:
    """Sum of all quantizer regularization terms (e.g. PACT alpha L2)."""
    total: Optional[Tensor] = None
    for _, layer in quantized_layers(model):
        reg = layer.act_quantizer.regularization()
        if reg is None:
            continue
        total = reg if total is None else total + reg
    return total


def _feed(h: "hashlib._Hash", name: str, value: Any) -> None:
    h.update(name.encode())
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value))
    else:
        h.update(repr(value).encode())


def state_digest(model: Module) -> bytes:
    """A digest of everything an evaluation of ``model`` reads.

    Every parameter and buffer by value, plus each quantized layer's
    quantizers: their class and their full
    :meth:`~repro.quantization.base.Quantizer.save_state` (bits, learned
    scalars, initialization flags, fitted levels).  Two states with
    equal digests score identically on the same data.
    """
    h = hashlib.blake2b(digest_size=20)
    for name, param in model.named_parameters():
        _feed(h, name, param.data)
    for name, buffer in model.named_buffers():
        _feed(h, name, buffer)
    for name, layer in quantized_layers(model):
        for quantizer in (layer.weight_quantizer, layer.act_quantizer):
            h.update(type(quantizer).__qualname__.encode())
            for key, value in sorted(quantizer.save_state().items()):
                _feed(h, f"{name}.{key}", value)
    return h.digest()
