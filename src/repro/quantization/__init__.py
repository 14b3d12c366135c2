"""``repro.quantization`` — quantization policies and quantized modules.

Implements the full policy zoo the paper builds on and compares against
(DoReFa, WRPN, PACT, PACT-SAWB, LSQ, LQ-Nets, QIL, BNN, XNOR) plus static
post-training calibration (ACIQ, TensorRT-style KL, observer-driven
activation calibration), deployment export (codebook bit-packing) and
int64 execution validation, all on a shared STE fake-quant core.
:func:`quantize_model` converts any :class:`repro.nn.Module` network into
its quantization-aware counterpart with per-layer reconfigurable bit
widths.
"""

from .binary import (
    BNNActivationQuantizer,
    BNNWeightQuantizer,
    XNORWeightQuantizer,
    per_channel_symmetric_quantize,
)
from .qil import QILActivationQuantizer, QILWeightQuantizer
from .base import (
    ActivationQuantizer,
    IdentityQuantizer,
    WeightQuantizer,
    fake_quantize_symmetric,
    fake_quantize_unsigned,
    n_levels,
    quantization_error,
    quantize_unit_ste,
)
from .dorefa import DoReFaActivationQuantizer, DoReFaWeightQuantizer
from .export import PackedLayer, PackedModel, pack_model, unpack_into
from .integer_inference import AffineCode, extract_affine_code
from .calibration import FixedClipActivationQuantizer, calibrate_activations
from .lqnets import LQNetsActivationQuantizer, LQNetsWeightQuantizer, lloyd_levels
from .lsq import LSQActivationQuantizer, LSQWeightQuantizer
from .observers import (
    HistogramObserver,
    MinMaxObserver,
    MovingAverageMinMaxObserver,
)
from .pact import PACTActivationQuantizer, PACTWeightQuantizer
from .policy import QuantPolicy, available_policies, get_policy, register_policy
from .qmodules import (
    QuantConv2d,
    QuantLinear,
    QuantModule,
    collect_quantizer_parameters,
    collect_regularization,
    get_bit_config,
    quantize_model,
    quantized_layers,
    set_bit_config,
    set_uniform_bits,
    state_digest,
)
from .sawb import SAWBWeightQuantizer, fit_sawb_coefficients, sawb_alpha
from .static import aciq_clip, kl_divergence_clip, quantize_array_symmetric
from .wrpn import WRPNActivationQuantizer, WRPNWeightQuantizer

__all__ = [
    "ActivationQuantizer",
    "WeightQuantizer",
    "IdentityQuantizer",
    "n_levels",
    "quantize_unit_ste",
    "fake_quantize_symmetric",
    "fake_quantize_unsigned",
    "quantization_error",
    "DoReFaWeightQuantizer",
    "DoReFaActivationQuantizer",
    "WRPNWeightQuantizer",
    "WRPNActivationQuantizer",
    "PACTWeightQuantizer",
    "PACTActivationQuantizer",
    "SAWBWeightQuantizer",
    "sawb_alpha",
    "fit_sawb_coefficients",
    "LSQWeightQuantizer",
    "LSQActivationQuantizer",
    "LQNetsWeightQuantizer",
    "LQNetsActivationQuantizer",
    "QILWeightQuantizer",
    "QILActivationQuantizer",
    "BNNWeightQuantizer",
    "BNNActivationQuantizer",
    "XNORWeightQuantizer",
    "per_channel_symmetric_quantize",
    "PackedLayer",
    "PackedModel",
    "pack_model",
    "unpack_into",
    "AffineCode",
    "extract_affine_code",
    "FixedClipActivationQuantizer",
    "calibrate_activations",
    "lloyd_levels",
    "MinMaxObserver",
    "MovingAverageMinMaxObserver",
    "HistogramObserver",
    "aciq_clip",
    "kl_divergence_clip",
    "quantize_array_symmetric",
    "QuantPolicy",
    "register_policy",
    "get_policy",
    "available_policies",
    "QuantModule",
    "QuantConv2d",
    "QuantLinear",
    "quantize_model",
    "quantized_layers",
    "set_uniform_bits",
    "get_bit_config",
    "set_bit_config",
    "collect_quantizer_parameters",
    "collect_regularization",
    "state_digest",
]
