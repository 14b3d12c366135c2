"""Per-layer MAC counting via shape tracing.

Counting multiply-accumulates needs each layer's *input* spatial size,
which depends on the whole network topology (strides, pooling, shortcut
paths).  Rather than re-deriving shapes analytically, we read them off
the model graph (:func:`repro.nn.graph.trace`) of one dummy forward
pass — robust to any composition of modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..nn.functional import conv_output_size
from ..nn.graph import Node, trace
from ..nn.modules import Conv2d, Module
from ..quantization.qmodules import (
    QuantConv2d, quantized_layers, quantizers_kept,
)

__all__ = ["LayerMACs", "trace_layer_macs"]


@dataclass(frozen=True)
class LayerMACs:
    """MAC count and current precision of one compute layer."""

    name: str
    macs: int
    w_bits: "int | None"
    a_bits: "int | None"
    n_params: int


def layer_macs(node: Node) -> int:
    """MACs per inference of one traced conv/linear layer node."""
    layer = node.module
    if isinstance(layer, (Conv2d, QuantConv2d)):
        _, c_in, h, w = node.inputs[0].shape
        k = layer.kernel_size
        oh = conv_output_size(h, k, layer.stride, layer.padding)
        ow = conv_output_size(w, k, layer.stride, layer.padding)
        return oh * ow * k * k * c_in * layer.out_channels
    return layer.in_features * layer.out_features


def layer_nodes(
    model: Module, input_shape: Tuple[int, int, int]
) -> List[Node]:
    """The layer nodes of ``model``'s graph on a zero batch.

    ``input_shape`` is ``(C, H, W)`` of a single sample.  The trace runs
    the caller's live model in eval mode and leaves it as found: the
    training flag, and every quantizer's full state, which a forward
    would otherwise set from the zero batch (LSQ's step size, QIL's and
    LQ-Nets' lazy initialization).
    """
    was_training = model.training
    model.eval()
    try:
        with quantizers_kept(quantized_layers(model)):
            graph = trace(model, np.zeros((1, *input_shape)))
    finally:
        if was_training:
            model.train()
    return graph.layers()


def trace_layer_macs(
    model: Module, input_shape: Tuple[int, int, int]
) -> List[LayerMACs]:
    """MACs per inference for every conv/linear layer of ``model``, in
    ``named_modules()`` order; the trace leaves the model as found (see
    :func:`layer_nodes`)."""
    return [
        LayerMACs(
            name=node.name,
            macs=layer_macs(node),
            w_bits=getattr(node.module, "w_bits", None),
            a_bits=getattr(node.module, "a_bits", None),
            n_params=node.module.weight.size,
        )
        for node in layer_nodes(model, input_shape)
    ]
