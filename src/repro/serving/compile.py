"""Compile a CCQ-quantized model into an integer-only serving artifact.

The training stack evaluates quantized layers in *fake-quant* form:
codes are materialized as float64 grid values and every layer runs a
float GEMM.  That is the right representation for gradient-based
search, but a deployment engine should never pay float64 between
layers.  This module lowers a trained chain model into a plan where

- weights are stored once as :class:`~repro.quantization
  .integer_inference.AffineCode` integer codes,
- activations travel between layers as int64 codes on each layer's
  probed activation grid, and
- the inter-layer scale change (requantization) happens in pure
  integer arithmetic via :class:`~repro.serving.fixedpoint
  .FixedPointMultiplier` pairs precomputed at compile time.

Pipeline (see docs/serving.md for the math):

1. **Trace.** The model runs once on the calibration batch and is
   recorded as a :mod:`repro.nn.graph` graph, the one the MAC counter
   and the model summary read too.  The graph must be a single
   feed-forward chain (conv/linear layers with relu/pool/flatten/GAP
   between them); a residual add, a branch or a reused tensor raises
   :class:`CompileError` naming the layer it follows.
2. **Fold BatchNorm** into the preceding conv's weight and bias
   (:func:`fold_batchnorm`); the BN module is replaced by
   ``Identity``.  Folding is float-exact only to fp32-style tolerance
   (it re-associates products), so the engine's bit-for-bit reference
   is the *folded* fake-quant model, exposed as
   ``CompiledModel.reference_model``.
3. **Freeze dynamic activation quantizers**
   (:func:`freeze_dynamic_quantizers`).  DoReFa's signed activation
   quantizer rescales by the per-batch ``max|x|``; a serving engine
   must be batch-invariant, so dynamic quantizers are detected by a
   two-amplitude probe and replaced with a static
   :class:`FrozenActQuantizer` snapshotted at the calibration
   amplitude.
4. **Probe activation grids.**  Each (now static) activation
   quantizer is treated as a black box: a saturation probe finds the
   clip range, a dense ramp enumerates its output levels, and the
   levels must form a complete uniform grid (scale, offset, count).
   Running the *actual* quantizer object — the same object the
   reference model holds — is what makes ingress bit-exact; a
   reimplementation of the quantizer math would diverge by ULPs.
5. **Plan requantization.**  For layer ``i`` with input codes ``c_x``
   on grid ``(s_x, o_x)`` and weight codes ``c_w`` on ``(s_w, o_w)``,
   the exact accumulator decomposition is

       y = s_x*s_w * acc + s_x*o_w * sum_cx
           + o_x*s_w * sum_cw_valid + o_x*o_w * n_valid + bias

   where the ``_valid`` terms run over real (non-padding) input
   positions only: zero padding is the float value 0, not the offset
   ``o_x``.  Everything except ``acc`` and ``sum_cx`` is
   input-independent and folded into a per-position constant at
   compile time.  The engine computes ``v ~= (y / s_next) * 2^f``
   (``f`` fraction bits) with two fixed-point multiplies plus the
   constant, applies post-ops (relu/pool/GAP — all exact or
   near-exact in the ``v`` domain), and converts to next-layer codes
   with a single round-half-even shift.
   Worst-case accumulator magnitudes are checked against int64 at
   compile time.

The compiled plan is shape-specialized: spatial im2col masks and
per-position constants are precomputed for the calibration input
shape, and the engine rejects requests with any other shape.

A forward draws its column-sized temporaries from a per-thread
:class:`_Workspace` that keeps its memory between forwards, so a warm
forward allocates nothing column-sized and faults no pages in.
"""

from __future__ import annotations

import copy
import math
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..nn import functional as F
from ..nn import kernels
from ..nn.autograd import no_grad
from ..nn.graph import Graph, Node, trace
from ..nn.modules import Conv2d, Identity, Module, Parameter
from ..nn.tensor import Tensor
from ..quantization.base import ActivationQuantizer
from ..quantization.integer_inference import extract_affine_code
from ..quantization.qmodules import QuantConv2d, QuantModule, quantized_layers
from .fixedpoint import (
    FixedPointMultiplier,
    round_half_even_div,
    round_half_even_shift,
)

__all__ = [
    "CompileError",
    "ActGrid",
    "FrozenActQuantizer",
    "fold_batchnorm",
    "freeze_dynamic_quantizers",
    "fake_quant_activations",
    "compile_model",
    "CompiledModel",
]


class CompileError(RuntimeError):
    """The model cannot be lowered to an integer-only serving plan."""


def _validate_chain(graph: Graph) -> None:
    """Every traced op must consume the previous op's exact output.

    A rejection names the offending layer, or for a tensor op the last
    layer (or BatchNorm) before it.
    """
    if not graph.nodes:
        raise CompileError("model produced no traceable ops")
    prev, after = graph.input, "<input>"
    for node in graph.nodes:
        if node.kind == "add":
            raise CompileError(
                f"residual add after layer {after}: the serving compiler "
                "supports straight-line conv/linear chains only"
            )
        if node.kind == "unsupported":
            raise CompileError(
                f"unsupported op {node.args} after layer {after}"
            )
        if node.inputs[0] is not prev:
            op = (f"layer {node.name}" if node.module is not None
                  else f"{node.kind} after layer {after}")
            raise CompileError(
                f"{op} does not consume the previous op's output: the "
                "model is not a single feed-forward chain (branching or "
                "tensor reuse); the serving compiler supports "
                "straight-line conv/linear chains only"
            )
        prev = node.output
        if node.module is not None:
            after = node.name
    if prev is not graph.output:
        raise CompileError(
            "model output is not the traced chain tail (unsupported "
            f"trailing ops after layer {after})"
        )


# ---------------------------------------------------------------------------
# BatchNorm folding
# ---------------------------------------------------------------------------


def _replace_module(root: Module, target: Module, replacement: Module) -> None:
    for _, parent in root.named_modules():
        for name, child in list(parent._modules.items()):
            if child is target:
                parent.add_module(name, replacement)
                return
    raise CompileError("internal error: module to replace not found in tree")


def fold_batchnorm(
    model: Module, example_input: np.ndarray, inplace: bool = False
) -> Module:
    """Fold every ``BatchNorm2d`` into the conv that feeds it.

    With ``g = gamma / sqrt(running_var + eps)`` the folded layer is
    ``W'[o] = W[o] * g[o]`` and ``b' = beta + (b - running_mean) * g``;
    the BN module is replaced with ``Identity`` and a bias Parameter
    is created when the conv had none.  Works on both float ``Conv2d``
    and ``QuantConv2d`` (for the latter the *shadow* weights are
    folded and the quantizer re-quantizes them, which is the CCQ
    deployment semantics: quantize the folded network).

    Returns the folded model — a deepcopy unless ``inplace`` — left in
    eval mode.  Float equivalence with the unfolded model holds to
    fp32-style tolerance only; the fold re-associates float products.
    """
    folded = model if inplace else copy.deepcopy(model)
    folded.eval()
    graph = trace(folded, example_input)
    _validate_chain(graph)
    nodes = graph.nodes
    for i, node in enumerate(nodes):
        if node.kind != "batchnorm":
            continue
        if i == 0 or nodes[i - 1].kind != "layer" or not isinstance(
            nodes[i - 1].module, (Conv2d, QuantConv2d)
        ):
            raise CompileError(
                f"BatchNorm2d {node.name} is not directly preceded by a "
                "convolution; cannot fold"
            )
        conv = nodes[i - 1].module
        bn = node.module
        g = np.asarray(bn.weight.data) / np.sqrt(
            np.asarray(bn.running_var) + bn.eps
        )
        conv.weight.data[...] = conv.weight.data * g.reshape(-1, 1, 1, 1)
        old_bias = conv.bias.data if conv.bias is not None else 0.0
        new_bias = np.asarray(bn.bias.data) + (
            old_bias - np.asarray(bn.running_mean)
        ) * g
        if conv.bias is None:
            conv.bias = Parameter(new_bias)
        else:
            conv.bias.data[...] = new_bias
        _replace_module(folded, bn, Identity())
    # Folding rewrote shadow weights; stale cached quantized weights
    # must not survive into the compile pass.
    for _, qlayer in quantized_layers(folded):
        qlayer._wq_cache.clear()
    return folded


# ---------------------------------------------------------------------------
# Activation grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ActGrid:
    """A static uniform activation grid ``value = scale * code + offset``
    with codes in ``[0, n_codes)``."""

    scale: float
    offset: float
    n_codes: int

    @property
    def hi(self) -> float:
        return self.offset + (self.n_codes - 1) * self.scale

    def codes_from_values(self, values: np.ndarray) -> np.ndarray:
        """Exact codes for values already lying on the grid."""
        codes = np.rint((np.asarray(values) - self.offset) / self.scale)
        return np.clip(codes, 0, self.n_codes - 1).astype(np.int64)


class FrozenActQuantizer(ActivationQuantizer):
    """Static snapshot of a dynamic activation quantizer.

    Clip-then-round onto a fixed :class:`ActGrid`.  Because the grid's
    clip bounds are themselves grid levels, clip-then-round equals
    round-then-clamp — the identity the integer engine relies on when
    it clamps codes after the requantization shift.
    """

    def __init__(self, grid: ActGrid, bits: int) -> None:
        super().__init__()
        self.grid = grid
        self.set_bits(bits)

    def quantize(self, x: Tensor, bits: int) -> Tensor:
        g = self.grid
        clipped = x.clip(g.offset, g.hi)
        return F.round_ste((clipped - g.offset) / g.scale) * g.scale + g.offset


def _act_quantize_array(q: ActivationQuantizer, x: np.ndarray) -> np.ndarray:
    """Run an activation quantizer on a raw ndarray outside autograd."""
    with no_grad():
        return q(Tensor(np.asarray(x, dtype=np.float64))).data


def _probe_points(bits: int) -> int:
    # >= 42 samples per expected grid step; capped so probing stays cheap.
    return 64 * min(1 << int(bits), 512) + 1


def _grid_from_levels(levels: np.ndarray, context: str) -> ActGrid:
    if levels.size < 2:
        raise CompileError(
            f"{context}: activation quantizer produced a degenerate grid "
            f"({levels.size} level(s))"
        )
    gaps = np.diff(levels)
    scale = float(gaps.min())
    if scale <= 0 or not np.allclose(gaps, scale, rtol=1e-6, atol=0.0):
        raise CompileError(
            f"{context}: activation levels do not form a complete uniform "
            "grid; only uniform activation quantizers can be served "
            "integer-only"
        )
    n = int(round(float(levels[-1] - levels[0]) / scale)) + 1
    return ActGrid(scale=scale, offset=float(levels[0]), n_codes=n)


def _is_dynamic(q: ActivationQuantizer, amplitude: float) -> bool:
    """Detect data-dependent (per-batch) quantizer state.

    A static quantizer is elementwise: appending an extra point to the
    probe batch cannot change the other outputs.  A dynamic one (e.g.
    DoReFa's signed path, which rescales by the batch ``max|x|``)
    shifts its whole grid when the batch maximum doubles.
    """
    base = np.linspace(amplitude / 7.0, amplitude, 17)
    out1 = _act_quantize_array(q, np.append(base, amplitude))
    out2 = _act_quantize_array(q, np.append(base, 2.0 * amplitude))
    return not np.array_equal(out1[:-1], out2[:-1])


def freeze_dynamic_quantizers(
    model: Module, calibration: np.ndarray
) -> List[str]:
    """Replace dynamic activation quantizers with static snapshots.

    Traces the model on the calibration batch to capture each
    quantized layer's pre-quantizer input, detects dynamic quantizers
    with :func:`_is_dynamic`, and swaps them for a
    :class:`FrozenActQuantizer` whose grid is probed at exactly the
    calibration amplitude ``M = max|x_cal|`` — so on calibration-like
    data the frozen grid is the one the dynamic quantizer would have
    chosen.  Returns the names of the layers that were frozen.

    Must run *before* grid probing: probing a dynamic quantizer would
    bake a probe-dependent grid into the plan and break
    batch-invariance at serve time.
    """
    frozen: List[str] = []
    for node in trace(model, calibration).nodes:
        if node.kind != "layer" or not isinstance(node.module, QuantModule):
            continue
        layer = node.module
        q = layer.act_quantizer
        if q.bits is None or isinstance(q, FrozenActQuantizer):
            continue
        amp = float(np.max(np.abs(node.inputs[0].data))) or 1.0
        if not _is_dynamic(q, amp):
            continue
        ramp = np.linspace(-amp, amp, _probe_points(q.bits))
        levels = np.unique(_act_quantize_array(q, ramp))
        grid = _grid_from_levels(levels, f"layer {node.name}")
        layer.act_quantizer = FrozenActQuantizer(grid, q.bits)
        frozen.append(node.name)
    return frozen


def _probe_act_grid(q: ActivationQuantizer, context: str) -> ActGrid:
    """Recover a static quantizer's full uniform grid by probing it."""
    sat = _act_quantize_array(q, np.array([-1e6, 1e6]))
    lo, hi = float(sat[0]), float(sat[1])
    if not hi > lo:
        raise CompileError(
            f"{context}: activation quantizer saturates to a single value"
        )
    span = hi - lo
    ramp = np.linspace(lo - 0.25 * span, hi + 0.25 * span,
                       _probe_points(q.bits or 8))
    levels = np.unique(_act_quantize_array(q, ramp))
    return _grid_from_levels(levels, context)


def fake_quant_activations(
    model: Module, x: np.ndarray
) -> Tuple[List[np.ndarray], np.ndarray]:
    """Per-layer fake-quant activation values of a chain model.

    Returns ``(acts, output)`` where ``acts[i]`` is layer ``i``'s
    activation-quantizer output on its traced input — the float-side
    ground truth the integer engine's per-layer codes are checked
    against bit-for-bit.
    """
    graph = trace(model, x)
    acts = [
        _act_quantize_array(node.module.act_quantizer, node.inputs[0].data)
        for node in graph.nodes
        if node.kind == "layer" and isinstance(node.module, QuantModule)
    ]
    return acts, graph.output.data


# ---------------------------------------------------------------------------
# Lowered stages
# ---------------------------------------------------------------------------


def _pair(v: Any) -> Tuple[int, int]:
    if isinstance(v, (tuple, list)):
        return int(v[0]), int(v[1])
    return int(v), int(v)


def _pool_counts(
    h: int, w: int, kernel: Tuple[int, int], stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Per-output-position count of real (non-padding) cells."""
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    ones = np.zeros((h + 2 * ph, w + 2 * pw), dtype=np.int64)
    ones[ph:ph + h, pw:pw + w] = 1
    windows = sliding_window_view(ones, (kh, kw))[::sh, ::sw]
    return windows.sum(axis=(-1, -2))


_MAXPOOL_PAD = np.iinfo(np.int64).min // 2


def _apply_post_ops_int(v: np.ndarray, ops: List[Tuple]) -> Tuple[np.ndarray, Any]:
    """Post-layer ops in the integer ``v`` domain.

    ``v`` is ``(N, F)`` for a linear layer and channels-last ``(N, OH,
    OW, F)`` for a conv, the layout its GEMM leaves, and is the
    caller's scratch: relu runs in place.  ``v`` is monotone in the
    float pre-activation ``y`` (``v ~= y/s_next * 2^f``), so relu and
    maxpool commute with the mapping exactly.  Averages never divide
    here: the window *sum* is kept exact and the window count is
    accumulated into the returned divisor, which the requantization
    step folds into its denominator (``round_half_even_div``).
    Pre-dividing would round twice and can flip values sitting exactly
    on a code boundary — and quantized accumulators land on boundaries
    routinely, not measure-zero often.

    Returns ``(v, divisor)`` where ``divisor`` is a positive int (or an
    int array broadcastable against ``v`` when padded average pooling
    makes the count position-dependent).
    """
    divisor: Any = 1
    for op in ops:
        kind = op[0]
        if kind == "relu":
            np.maximum(v, 0, out=v)
        elif kind == "flatten":
            if v.ndim == 4:
                # The next layer reads features in NCHW order.
                v = v.transpose(0, 3, 1, 2)
                if isinstance(divisor, np.ndarray):
                    divisor = divisor.transpose(0, 3, 1, 2)
            if isinstance(divisor, np.ndarray):
                divisor = np.broadcast_to(
                    divisor, (1,) + v.shape[1:]
                ).reshape(1, -1)
            v = v.reshape(v.shape[0], -1)
        elif kind == "gap":
            divisor = divisor * (v.shape[1] * v.shape[2])
            v = v.sum(axis=(1, 2))
        elif kind == "maxpool":
            _, kernel, stride, padding = op
            kh, kw = kernel
            sh, sw = stride
            ph, pw = padding
            if ph or pw:
                v = np.pad(
                    v, ((0, 0), (ph, ph), (pw, pw), (0, 0)),
                    constant_values=_MAXPOOL_PAD,
                )
            windows = sliding_window_view(v, (kh, kw), axis=(1, 2))
            v = windows[:, ::sh, ::sw].max(axis=(-1, -2))
        elif kind == "avgpool":
            _, kernel, stride, padding, counts = op
            kh, kw = kernel
            sh, sw = stride
            ph, pw = padding
            if ph or pw:
                v = np.pad(v, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
            windows = sliding_window_view(v, (kh, kw), axis=(1, 2))
            v = windows[:, ::sh, ::sw].sum(axis=(-1, -2))
            if isinstance(counts, np.ndarray):
                divisor = divisor * counts[None, :, :, None]
            else:
                divisor = divisor * counts
        else:  # pragma: no cover - specs are built by this module
            raise CompileError(f"unknown post-op {kind!r}")
    return v, divisor


def _apply_post_ops_float(y: np.ndarray, ops: List[Tuple]) -> np.ndarray:
    for op in ops:
        kind = op[0]
        if kind == "relu":
            y = np.maximum(y, 0.0)
        elif kind == "flatten":
            y = y.reshape(y.shape[0], -1)
        elif kind == "gap":
            y = y.mean(axis=(2, 3))
        else:  # pragma: no cover - rejected at compile time
            raise CompileError(f"post-op {kind!r} unsupported after egress")
    return y


class _Workspace(threading.local):
    """One thread's scratch memory for compiled forwards.

    A stage draws every column-sized temporary from three regions, each
    a flat buffer that grows to the largest request it has seen and is
    then reused by every later forward on the same thread, of any
    compiled model, until the thread exits:

    - ``codes``: the codes one stage hands the next;
    - ``a``: a conv's zero-padded input, then the GEMM's float64 work,
      then the requantization scratch;
    - ``b``: the column matrix and the int64 accumulator.

    A region holds one step's arrays at a time: :meth:`arrays` lays
    them out from the region's start, over whatever the region handed
    out before, so a stage asks a region for new arrays only once it is
    done with the old ones.  That holds across stages too: a stage has
    read its input codes (into its column matrix or its GEMM) before it
    writes its output codes over them.
    """

    def __init__(self) -> None:
        self.buffers: Dict[str, np.ndarray] = {}

    def arrays(self, region: str, *specs: Tuple[Tuple[int, ...], Any]
               ) -> List[np.ndarray]:
        """Views of the ``(shape, dtype)`` specs, back to back in
        ``region``."""
        layout, end = [], 0
        for shape, dtype in specs:
            dtype = np.dtype(dtype)
            nbytes = math.prod(shape) * dtype.itemsize
            layout.append((end, nbytes, shape, dtype))
            end += -(-nbytes // 64) * 64  # keep every array cache-line aligned
        buffer = self.buffers.get(region)
        if buffer is None or buffer.size < end:
            buffer = self.buffers[region] = np.empty(end, dtype=np.uint8)
        return [
            buffer[start:start + nbytes].view(dtype).reshape(shape)
            for start, nbytes, shape, dtype in layout
        ]


_WORKSPACE = _Workspace()


@dataclass
class _Requant:
    """Integer plan mapping one layer's accumulator to next-layer codes."""

    mul_acc: FixedPointMultiplier           # s_x*s_w / s_next * 2^f
    mul_sum: Optional[FixedPointMultiplier]  # s_x*o_w / s_next * 2^f
    const_fp: np.ndarray                    # (OH, OW, F) conv / (F,) linear
    o_fp: int                               # round(o_next/s_next * 2^f)
    fraction_bits: int
    n_codes: int


class _Stage:
    """One lowered layer: integer matmul core + post-ops + requant/egress."""

    def __init__(
        self,
        name: str,
        kind: str,
        w_flat_t: np.ndarray,
        post_ops: List[Tuple],
        *,
        kernel: Optional[Tuple[int, int]] = None,
        stride: Optional[Tuple[int, int]] = None,
        padding: Optional[Tuple[int, int]] = None,
        spatial: Optional[Tuple[int, int]] = None,
        requant: Optional[_Requant] = None,
        egress_coef_acc: float = 0.0,
        egress_coef_sum: float = 0.0,
        egress_const: Optional[np.ndarray] = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.w_flat_t = np.ascontiguousarray(w_flat_t)
        self.post_ops = post_ops
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self.spatial = spatial                  # a conv's (OH, OW)
        self.requant = requant
        self.egress_coef_acc = egress_coef_acc
        self.egress_coef_sum = egress_coef_sum
        self.egress_const = egress_const

    def _accumulate(self, codes):
        """Shared integer core: returns (acc, sum_cx).

        ``acc`` is a ``(rows, F)`` view into workspace region ``b``.
        """
        f_out = self.w_flat_t.shape[1]
        a = codes
        if self.kind == "conv":
            n, c, h, w = codes.shape
            ph, pw = self.padding
            rows = n * self.spatial[0] * self.spatial[1]
            cols, acc = _WORKSPACE.arrays(
                "b",
                ((rows, self.w_flat_t.shape[0]), np.int64),
                ((rows, f_out), np.int64),
            )
            padded = None
            if ph or pw:
                (padded,) = _WORKSPACE.arrays(
                    "a", ((n, c, h + 2 * ph, w + 2 * pw), np.int64)
                )
            kernels.int_im2col(
                codes, self.kernel, self.stride, self.padding,
                out=cols, padded=padded,
            )
            a = cols
        else:
            (acc,) = _WORKSPACE.arrays("b", ((a.shape[0], f_out), np.int64))
        (work,) = _WORKSPACE.arrays(
            "a", ((a.size + self.w_flat_t.size + acc.size,), np.float64)
        )
        kernels.int_gemm(a, self.w_flat_t, out=acc, work=work)
        return acc, a.sum(axis=1, keepdims=True)

    def run(self, codes: np.ndarray) -> np.ndarray:
        """codes -> next-layer codes (integer-only interior stage).

        The result is a view into this thread's workspace, valid until
        the thread runs its next stage.
        """
        r = self.requant
        acc, sum_cx = self._accumulate(codes)
        (scratch,) = _WORKSPACE.arrays("a", (acc.shape, np.int64))
        v = r.mul_acc(acc, out=acc, scratch=scratch)
        if r.mul_sum is not None:
            v += r.mul_sum(sum_cx)
        if self.spatial is not None:
            v = v.reshape(codes.shape[0], *self.spatial, v.shape[1])
        v += r.const_fp
        v, divisor = _apply_post_ops_int(v, self.post_ops)
        if isinstance(divisor, int) and divisor == 1:
            v -= r.o_fp
            (rounded,) = _WORKSPACE.arrays("a", (v.shape, np.int64))
            round_half_even_shift(v, r.fraction_bits, out=rounded)
        else:
            # Average pooling kept its window sums exact; fold the
            # accumulated count into the requant denominator so the
            # division rounds exactly once, half-to-even.
            den = divisor * (1 << r.fraction_bits)
            rounded = round_half_even_div(v - divisor * r.o_fp, den)
        if rounded.ndim == 4:
            rounded = rounded.transpose(0, 3, 1, 2)
        (codes_next,) = _WORKSPACE.arrays("codes", (rounded.shape, np.int64))
        return np.clip(rounded, 0, r.n_codes - 1, out=codes_next)

    def run_final(self, codes: np.ndarray) -> np.ndarray:
        """codes -> float logits (egress: the only float reconstruction)."""
        acc, sum_cx = self._accumulate(codes)
        y = (
            acc.astype(np.float64) * self.egress_coef_acc
            + sum_cx.astype(np.float64) * self.egress_coef_sum
        )
        if self.spatial is not None:
            n = codes.shape[0]
            oh, ow = self.spatial
            f_out = self.w_flat_t.shape[1]
            y = y.reshape(n, oh * ow, f_out) + self.egress_const[None]
            y = y.reshape(n, oh, ow, f_out).transpose(0, 3, 1, 2)
        else:
            y = y + self.egress_const[None]
        return _apply_post_ops_float(y, self.post_ops)


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------


def _build_post_ops(
    post_nodes: List[Node], layer_name: str, final: bool
) -> List[Tuple]:
    ops: List[Tuple] = []
    nonuniform_avg = False
    for node in post_nodes:
        if node.kind in ("gap", "maxpool", "avgpool") and nonuniform_avg:
            # A padded average pool gives each position its own divisor;
            # pooling across positions with unequal divisors has no
            # exact common-denominator form we are willing to pay for.
            raise CompileError(
                f"layer {layer_name}: pooling after a padded average "
                "pool is unsupported"
            )
        if node.kind == "relu":
            ops.append(("relu",))
        elif node.kind == "flatten":
            if node.args.get("start_dim") != 1:
                raise CompileError(
                    f"layer {layer_name}: flatten(start_dim="
                    f"{node.args.get('start_dim')}) is unsupported; only "
                    "start_dim=1 can be lowered"
                )
            ops.append(("flatten",))
        elif node.kind == "gap":
            _, _, h, w = node.inputs[0].data.shape
            ops.append(("gap", int(h * w)))
        elif node.kind in ("maxpool", "avgpool"):
            if final:
                raise CompileError(
                    f"layer {layer_name}: pooling after the final layer is "
                    "unsupported"
                )
            kernel = _pair(node.args["kernel"])
            stride = _pair(
                node.args["stride"] if node.args["stride"] is not None
                else node.args["kernel"]
            )
            padding = _pair(node.args["padding"])
            if node.kind == "maxpool":
                ops.append(("maxpool", kernel, stride, padding))
            else:
                _, _, h, w = node.inputs[0].data.shape
                counts = _pool_counts(int(h), int(w), kernel, stride, padding)
                if np.all(counts == counts.flat[0]):
                    counts = int(counts.flat[0])
                else:
                    nonuniform_avg = True
                ops.append(("avgpool", kernel, stride, padding, counts))
        elif node.kind == "batchnorm":
            raise CompileError(
                f"layer {layer_name}: unfolded BatchNorm after a "
                "non-convolution layer cannot be served"
            )
        else:
            raise CompileError(
                f"layer {layer_name}: unsupported post-op {node.kind!r}"
            )
    return ops


class CompiledModel:
    """An integer-only executable plan for a quantized chain model.

    ``forward`` runs: float ingress quantization of the input (via the
    model's own first-layer activation quantizer) -> integer codes ->
    N-1 integer-only stages -> float egress on the final layer.  The
    plan is specialized to ``input_shape`` (per-sample).  Batching is
    mathematically invisible, so batched execution is bitwise identical
    to serial execution.

    No result carries from one call to the next.  What a call leaves
    behind is memory: the stages draw their temporaries from a
    workspace private to the calling thread, which keeps its size
    between calls and is overwritten by every forward, so concurrent
    forwards on different threads never share it.  The logits (and
    ``forward_codes``' trace) are fresh arrays the caller owns.
    """

    def __init__(
        self,
        stages: List[_Stage],
        grids: List[ActGrid],
        leading_ops: List[Tuple],
        ingress_quantizer: ActivationQuantizer,
        reference_model: Module,
        input_shape: Tuple[int, ...],
        fraction_bits: int,
        layer_bits: List[Tuple[Optional[int], Optional[int]]],
        frozen_layers: List[str],
    ) -> None:
        self.stages = stages
        self.grids = grids
        self.leading_ops = leading_ops
        self.ingress_quantizer = ingress_quantizer
        self.reference_model = reference_model
        self.input_shape = tuple(int(d) for d in input_shape)
        self.fraction_bits = fraction_bits
        self.layer_bits = layer_bits
        self.frozen_layers = frozen_layers

    @property
    def n_layers(self) -> int:
        return len(self.stages)

    @property
    def layer_names(self) -> List[str]:
        return [s.name for s in self.stages]

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != len(self.input_shape) + 1 or \
                x.shape[1:] != self.input_shape:
            raise ValueError(
                f"expected input of shape (N, {', '.join(map(str, self.input_shape))}), "
                f"got {x.shape}"
            )
        return x

    def _ingress_codes(self, x: np.ndarray) -> np.ndarray:
        for op in self.leading_ops:
            if op[0] == "flatten":
                x = x.reshape(x.shape[0], -1)
        xq = _act_quantize_array(self.ingress_quantizer, x)
        return self.grids[0].codes_from_values(xq)

    def _run(
        self, x: np.ndarray, trace: Optional[List[np.ndarray]] = None
    ) -> np.ndarray:
        """The forward; appends copies of each layer's input codes to
        ``trace`` when given (the stages hand codes on through this
        thread's workspace, which the next forward overwrites)."""
        codes = self._ingress_codes(self._check_input(x))
        if trace is not None:
            trace.append(codes)
        for stage in self.stages[:-1]:
            codes = stage.run(codes)
            if trace is not None:
                trace.append(codes.copy())
        return self.stages[-1].run_final(codes)

    def forward_codes(
        self, x: np.ndarray
    ) -> Tuple[List[np.ndarray], np.ndarray]:
        """Returns (per-layer input codes, float logits)."""
        trace: List[np.ndarray] = []
        logits = self._run(x, trace)
        return trace, logits

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._run(x)

    __call__ = forward

    def summary(self) -> Dict[str, Any]:
        return {
            "input_shape": list(self.input_shape),
            "fraction_bits": self.fraction_bits,
            "frozen_layers": list(self.frozen_layers),
            "layers": [
                {
                    "name": s.name,
                    "kind": s.kind,
                    "w_bits": wb,
                    "a_bits": ab,
                    "act_scale": g.scale,
                    "act_offset": g.offset,
                    "act_codes": g.n_codes,
                }
                for s, g, (wb, ab) in zip(
                    self.stages, self.grids, self.layer_bits
                )
            ],
        }


def compile_model(
    model: Module,
    calibration: np.ndarray,
    fraction_bits: int = 24,
) -> CompiledModel:
    """Lower a quantized chain model to an integer-only serving plan.

    ``calibration`` is a representative input batch: it fixes the
    served input shape, provides the amplitude at which dynamic
    quantizers are frozen, and (for policies with lazy state, e.g.
    LSQ) runs one initialization forward pass.  The original model is
    not modified; the compiled plan holds a folded deepcopy as its
    bit-for-bit ``reference_model``.
    """
    calibration = np.asarray(calibration, dtype=np.float64)
    if calibration.ndim < 2:
        raise CompileError("calibration input must be a batch (N, ...)")
    if not np.all(np.isfinite(calibration)):
        raise CompileError("calibration input contains non-finite values")

    folded = fold_batchnorm(model, calibration)
    frozen = freeze_dynamic_quantizers(folded, calibration)
    graph = trace(folded, calibration)
    _validate_chain(graph)
    nodes = graph.nodes

    first = next(
        (i for i, nd in enumerate(nodes) if nd.kind == "layer"), None
    )
    if first is None:
        raise CompileError("model contains no layers")
    leading_ops = _build_post_ops(nodes[:first], "<input>", final=False)
    for op in leading_ops:
        if op[0] != "flatten":
            raise CompileError(
                f"unsupported op before the first layer {nodes[first].name}: "
                f"{op[0]}"
            )

    segments: List[Tuple[Node, List[Node]]] = []
    i = first
    while i < len(nodes):
        post: List[Node] = []
        j = i + 1
        while j < len(nodes) and nodes[j].kind != "layer":
            post.append(nodes[j])
            j += 1
        segments.append((nodes[i], post))
        i = j

    layers: List[QuantModule] = []
    for node, _ in segments:
        layer = node.module
        if not isinstance(layer, QuantModule):
            raise CompileError(
                f"layer {node.name} is not quantized; run "
                "quantize_model() and set bit widths before compiling"
            )
        if layer.w_bits is None or layer.a_bits is None:
            raise CompileError(
                f"layer {node.name}: weight and "
                "activation bit widths must both be set (got "
                f"w_bits={layer.w_bits}, a_bits={layer.a_bits})"
            )
        layers.append(layer)

    grids = [
        _probe_act_grid(node.module.act_quantizer, f"layer {node.name}")
        for node, _ in segments
    ]

    stages: List[_Stage] = []
    for idx, ((node, post), layer) in enumerate(zip(segments, layers)):
        name = node.name
        final = idx == len(segments) - 1
        post_ops = _build_post_ops(post, name, final=final)

        wq = layer.weight_quantizer.quantize_array(np.asarray(layer.weight.data))
        try:
            w_code = extract_affine_code(wq)
        except ValueError as exc:
            raise CompileError(
                f"layer {name}: quantized weights do not lie on a uniform "
                f"grid ({exc}); non-uniform policies (e.g. lq-nets) cannot "
                "be served integer-only"
            ) from exc

        bias = (
            np.asarray(layer.bias.data, dtype=np.float64)
            if layer.bias is not None else None
        )
        grid = grids[idx]
        s_x, o_x = grid.scale, grid.offset
        s_w, o_w = w_code.scale, w_code.offset
        in_shape = node.inputs[0].data.shape

        spatial = None
        if isinstance(layer, QuantConv2d):
            kind = "conv"
            kernel = _pair(layer.kernel_size)
            stride = _pair(layer.stride)
            padding = _pair(layer.padding)
            f_out, c_in = w_code.codes.shape[0], w_code.codes.shape[1]
            k_recept = c_in * kernel[0] * kernel[1]
            w_flat_t = w_code.codes.reshape(f_out, -1).T
            # Input-shape-specialized padding-correction terms.
            probe = np.zeros((1,) + tuple(in_shape[1:]), dtype=np.int64)
            _, mask, spatial = kernels.int_im2col(
                probe, kernel, stride, padding
            )
            w_spatial = w_code.codes.reshape(
                f_out, c_in, kernel[0] * kernel[1]
            ).sum(axis=1)
            sum_cw_valid = mask @ w_spatial.T                 # (P, F)
            n_valid = mask.sum(axis=1, keepdims=True) * c_in  # (P, 1)
            const_float = (
                (o_x * s_w) * sum_cw_valid.astype(np.float64)
                + (o_x * o_w) * n_valid.astype(np.float64)
            )
            if bias is not None:
                const_float = const_float + bias[None, :]
        else:
            kind = "linear"
            kernel = stride = padding = None
            k_recept = w_code.codes.shape[1]
            w_flat_t = w_code.codes.T
            sum_cw = w_code.codes.sum(axis=1).astype(np.float64)
            const_float = (o_x * s_w) * sum_cw + (o_x * o_w) * float(k_recept)
            if bias is not None:
                const_float = const_float + bias

        if final:
            stages.append(_Stage(
                name, kind, w_flat_t, post_ops,
                kernel=kernel, stride=stride, padding=padding,
                spatial=spatial,
                egress_coef_acc=s_x * s_w,
                egress_coef_sum=s_x * o_w,
                egress_const=const_float,
            ))
            continue

        nxt = grids[idx + 1]
        two_f = float(1 << fraction_bits)
        mul_acc = FixedPointMultiplier(s_x * s_w / nxt.scale * two_f)
        mul_sum = (
            FixedPointMultiplier(s_x * o_w / nxt.scale * two_f)
            if o_w != 0.0 else None
        )
        const_fp = np.rint(const_float / nxt.scale * two_f).astype(np.int64)
        if kind == "conv":
            const_fp = const_fp.reshape(*spatial, -1)
        o_fp = int(np.rint(nxt.offset / nxt.scale * two_f))

        # Worst-case int64 overflow audit for this stage.
        acc_max = (grid.n_codes - 1) * (w_code.n_levels - 1) * k_recept
        sum_max = (grid.n_codes - 1) * k_recept
        if acc_max > mul_acc.max_safe_operand or (
            mul_sum is not None and sum_max > mul_sum.max_safe_operand
        ):
            raise CompileError(
                f"layer {name}: worst-case accumulator ({acc_max}) "
                "overflows the fixed-point multiplier; reduce "
                "fraction_bits or bit widths"
            )
        v_bound = (
            abs(mul_acc.value) * acc_max
            + (abs(mul_sum.value) * sum_max if mul_sum is not None else 0.0)
            + float(np.abs(const_fp).max(initial=0))
        )
        # Average pools keep exact window sums (divided only at requant),
        # so each one scales the magnitude bound — and the requant
        # subtracts divisor*o_fp — by its window size.
        pool_gain = 1
        for op in post_ops:
            if op[0] == "gap":
                pool_gain *= int(op[1])
            elif op[0] == "avgpool":
                pool_gain *= int(op[1][0] * op[1][1])
        v_bound = v_bound * pool_gain + float(pool_gain) * abs(o_fp)
        if v_bound >= float(1 << 62):
            raise CompileError(
                f"layer {name}: requantized magnitude bound {v_bound:.3g} "
                "exceeds int64; reduce fraction_bits"
            )

        stages.append(_Stage(
            name, kind, w_flat_t, post_ops,
            kernel=kernel, stride=stride, padding=padding,
            spatial=spatial,
            requant=_Requant(
                mul_acc=mul_acc,
                mul_sum=mul_sum,
                const_fp=const_fp,
                o_fp=o_fp,
                fraction_bits=fraction_bits,
                n_codes=nxt.n_codes,
            ),
        ))

    return CompiledModel(
        stages=stages,
        grids=grids,
        leading_ops=leading_ops,
        ingress_quantizer=layers[0].act_quantizer,
        reference_model=folded,
        input_shape=calibration.shape[1:],
        fraction_bits=fraction_bits,
        layer_bits=[(l.w_bits, l.a_bits) for l in layers],
        frozen_layers=frozen,
    )
