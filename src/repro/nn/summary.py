"""Model summaries: a torchsummary-style table with MACs and precision.

Reads the same model graph the hardware model does, adding
per-layer output shapes, parameter counts, MACs and — for quantized
models — the current (w_bits, a_bits), so a CCQ result can be inspected
at a glance or dumped into a report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .modules import Module

__all__ = ["LayerSummary", "summarize", "format_summary"]


@dataclass(frozen=True)
class LayerSummary:
    """One row of the model summary."""

    name: str
    kind: str
    output_shape: Tuple[int, ...]
    n_params: int
    macs: int
    w_bits: Optional[int]
    a_bits: Optional[int]


def summarize(
    model: Module, input_shape: Tuple[int, int, int]
) -> List[LayerSummary]:
    """Trace one forward pass and summarize every conv/linear layer.

    The rows come from the same layer nodes as
    :func:`repro.hardware.trace_layer_macs`, which leaves the model as
    found.
    """
    from ..hardware.mac import layer_macs, layer_nodes

    return [
        LayerSummary(
            name=node.name,
            kind=type(node.module).__name__,
            output_shape=node.output.shape,
            n_params=node.module.weight.size + (
                node.module.bias.size if node.module.bias is not None else 0
            ),
            macs=layer_macs(node),
            w_bits=getattr(node.module, "w_bits", None),
            a_bits=getattr(node.module, "a_bits", None),
        )
        for node in layer_nodes(model, input_shape)
    ]


def format_summary(
    rows: List[LayerSummary], show_bits: bool = True
) -> str:
    """Render summary rows as an aligned text table."""
    header = (
        f"{'layer':<26} {'type':<12} {'output':<18} "
        f"{'params':>9} {'MACs':>12}"
    )
    if show_bits:
        header += f" {'W/A bits':>9}"
    lines = [header, "-" * len(header)]
    for row in rows:
        line = (
            f"{row.name:<26} {row.kind:<12} "
            f"{str(tuple(row.output_shape)):<18} "
            f"{row.n_params:>9,} {row.macs:>12,}"
        )
        if show_bits:
            w = "fp" if row.w_bits is None else str(row.w_bits)
            a = "fp" if row.a_bits is None else str(row.a_bits)
            line += f" {w + '/' + a:>9}"
        lines.append(line)
    total_params = sum(r.n_params for r in rows)
    total_macs = sum(r.macs for r in rows)
    lines.append("-" * len(header))
    lines.append(
        f"{'total':<26} {'':<12} {'':<18} "
        f"{total_params:>9,} {total_macs:>12,}"
    )
    return "\n".join(lines)
