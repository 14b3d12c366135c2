"""The model graph: one forward pass recorded as a list of ops.

There is no graph IR in this substrate, so :func:`trace` runs the model
once with its ops instrumented at class level: ``forward`` of the conv,
linear and BatchNorm classes (float and quantized), the ``Tensor``
methods ``relu``/``flatten``/``mean``/``__add__``, and the pooling entry
points of :mod:`repro.nn.functional` (modules look those up at call
time, so a module-attribute patch reaches them).  Every op that runs
outside another recorded op becomes a :class:`Node`; the tensor
arithmetic inside a quantizer or a BatchNorm is not recorded.

The serving compiler lowers this graph, and the MAC counter and the
model summary read its layer nodes, so all three see one network.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from . import functional as F
from .autograd import no_grad
from .modules import BatchNorm2d, Conv2d, Linear, Module
from .tensor import Tensor

__all__ = ["Node", "Graph", "trace"]


@dataclass
class Node:
    """One recorded op.

    ``kind`` is ``layer`` (conv or linear, float or quantized),
    ``batchnorm``, ``relu``, ``maxpool``, ``avgpool``, ``gap`` (global
    average pool), ``flatten``, ``add`` (tensor plus tensor: a residual
    join) or ``unsupported``.  Layer and BatchNorm nodes carry their
    module and its ``named_modules()`` name; tensor ops carry ``None``.
    """

    kind: str
    module: Optional[Module]
    name: Optional[str]
    inputs: Tuple[Any, ...]   # the Tensors themselves, for identity checks
    output: Tensor
    args: Dict[str, Any]


@dataclass
class Graph:
    """The recorded ops of one forward pass, in execution order."""

    nodes: List[Node]
    input: Tensor
    output: Tensor
    names: Dict[int, str]     # id(module) -> name, in named_modules() order

    def layers(self) -> List[Node]:
        """The last call of every conv/linear layer, in
        ``named_modules()`` order: the order of ``quantized_layers``."""
        last = {id(n.module): n for n in self.nodes if n.kind == "layer"}
        return [last[key] for key in self.names if key in last]


def _mean_kind(self: Tensor, axis: Any = None, keepdims: bool = False):
    ax = tuple(axis) if isinstance(axis, (tuple, list)) else axis
    kind = "gap" if ax == (2, 3) and not keepdims else "unsupported"
    return kind, None, (self,), {"mean": ax}


def _add_kind(self: Tensor, other: Any):
    if isinstance(other, Tensor):
        return "add", None, (self, other), {}
    return "unsupported", None, (self,), {"add": other}


def _pool_kind(kind: str) -> Callable[..., Tuple]:
    def describe(x: Tensor, kernel: Any, stride: Any = None, padding: Any = 0):
        args = {"kernel": kernel, "stride": stride, "padding": padding}
        return kind, None, (x,), args
    return describe


def trace(model: Module, x: Any) -> Graph:
    """Run ``model`` once on ``x`` under ``no_grad`` and record its ops.

    The forward runs on ``model`` itself, so whatever state it sets
    (BatchNorm statistics in training mode, a quantizer's lazy
    initialization) stays set; callers that must leave the model as
    found save and restore that state around the call.  Ops that other
    threads run meanwhile are not recorded, and every patch is undone
    even if the forward raises.
    """
    from ..quantization.qmodules import QuantConv2d, QuantLinear

    names = {id(m): n for n, m in model.named_modules()}
    nodes: List[Node] = []
    depth = [0]          # > 0 while inside a recorded op
    owner = threading.get_ident()
    patched: List[Tuple[Any, str, Any]] = []

    def patch(obj: Any, attr: str, describe: Callable[..., Tuple]) -> None:
        orig = vars(obj)[attr]

        def op(*args: Any, **kwargs: Any) -> Any:
            if depth[0] or threading.get_ident() != owner:
                return orig(*args, **kwargs)
            depth[0] += 1
            try:
                out = orig(*args, **kwargs)
            finally:
                depth[0] -= 1
            kind, module, inputs, op_args = describe(*args, **kwargs)
            name = None if module is None else names.get(id(module))
            nodes.append(Node(kind, module, name, inputs, out, op_args))
            return out

        patched.append((obj, attr, orig))
        setattr(obj, attr, op)

    x_t = Tensor(np.array(x, dtype=np.float64))
    try:
        for cls in (Conv2d, Linear, QuantConv2d, QuantLinear):
            patch(cls, "forward", lambda self, x: ("layer", self, (x,), {}))
        patch(BatchNorm2d, "forward",
              lambda self, x: ("batchnorm", self, (x,), {}))
        patch(Tensor, "relu", lambda self: ("relu", None, (self,), {}))
        patch(Tensor, "flatten", lambda self, start_dim=0: (
            "flatten", None, (self,), {"start_dim": start_dim}))
        patch(Tensor, "mean", _mean_kind)
        patch(Tensor, "__add__", _add_kind)
        patch(F, "max_pool2d", _pool_kind("maxpool"))
        patch(F, "avg_pool2d", _pool_kind("avgpool"))
        patch(F, "global_avg_pool2d", lambda x: ("gap", None, (x,), {}))
        with no_grad():
            out = model(x_t)
    finally:
        for obj, attr, orig in reversed(patched):
            setattr(obj, attr, orig)
    return Graph(nodes, x_t, out, names)
