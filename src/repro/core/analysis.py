"""Layer-sensitivity analysis: the evidence behind mixed precision.

The paper's motivation (Section I, citing "Are all layers created
equal?") is that layers differ in how much quantization hurts them.  This
module measures that directly: quantize one layer at a time to each
ladder level, evaluate the validation loss/accuracy, and restore — the
same probe primitive CCQ's competition uses, exposed as a standalone
analysis a user can run before choosing a ladder or a λ schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..nn.data import DataLoader
from ..nn.modules import Module
from ..quantization.qmodules import quantized_layers, quantizers_kept
from .schedule import BitLadder, DEFAULT_LADDER
from .training import EvalResult, evaluate

__all__ = ["LayerProbe", "SensitivityReport", "scan_layer_sensitivity"]


@dataclass(frozen=True)
class LayerProbe:
    """One (layer, bits) probe outcome."""

    layer: str
    bits: int
    loss: float
    accuracy: float


@dataclass
class SensitivityReport:
    """All probes plus the reference (current configuration) evaluation."""

    reference: EvalResult
    probes: List[LayerProbe]

    def by_layer(self) -> Dict[str, List[LayerProbe]]:
        out: Dict[str, List[LayerProbe]] = {}
        for probe in self.probes:
            out.setdefault(probe.layer, []).append(probe)
        return out

    def ranking(self, bits: int) -> List[Tuple[str, float]]:
        """Layers ordered most-sensitive-first at one precision.

        Sensitivity is the loss increase over the reference.
        """
        rows = [
            (p.layer, p.loss - self.reference.loss)
            for p in self.probes
            if p.bits == bits
        ]
        return sorted(rows, key=lambda item: -item[1])

    def most_robust(self, bits: int, k: int = 3) -> List[str]:
        """The ``k`` layers cheapest to quantize at ``bits``."""
        return [name for name, _ in self.ranking(bits)[-k:]][::-1]


def scan_layer_sensitivity(
    model: Module,
    val_loader: DataLoader,
    ladder: BitLadder = DEFAULT_LADDER,
    layers: Optional[Sequence[str]] = None,
    max_batches: Optional[int] = None,
    probe_activations: bool = True,
) -> SensitivityReport:
    """Probe every (layer, ladder-level) pair with pure feed-forwards.

    The model is left exactly as found: every quantizer gets its whole
    state back (:func:`~repro.quantization.qmodules.quantizers_kept`)
    after each scanned layer and after the whole scan, because the bit
    setters would re-arm LSQ's and QIL's initialization and drop
    LQ-Nets' levels, and the reference evaluation of a freshly
    quantized model would initialize them.  ``layers`` restricts the
    scan to a subset (dotted names); ``max_batches`` caps the
    validation subset per probe, mirroring CCQ's cheap probes.
    """
    named = quantized_layers(model)
    all_layers = dict(named)
    if not all_layers:
        raise ValueError("model has no quantized layers")
    if layers is None:
        layers = list(all_layers)
    unknown = set(layers) - set(all_layers)
    if unknown:
        raise KeyError(f"unknown layers: {sorted(unknown)}")

    probes: List[LayerProbe] = []
    with quantizers_kept(named):
        reference = evaluate(model, val_loader, max_batches=max_batches)
        for name in layers:
            layer = all_layers[name]
            with quantizers_kept([(name, layer)]):
                for bits in ladder:
                    layer.w_bits = bits
                    if probe_activations:
                        layer.a_bits = bits
                    r = evaluate(model, val_loader, max_batches=max_batches)
                    probes.append(LayerProbe(name, bits, r.loss, r.accuracy))
    return SensitivityReport(reference=reference, probes=probes)
