"""``repro.nn`` — a from-scratch numpy deep-learning substrate.

Provides tensors with reverse-mode autograd, the NN op set needed for
residual networks, module composition, SGD-family optimizers, learning-rate
schedules (including the paper's hybrid plateau-cosine rule) and a data
pipeline with the paper's augmentations.
"""

from . import data, functional, graph, init, kernels, optim, schedule, serialization
from .autograd import Function, no_grad
from .modules import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    Module,
    Parameter,
    ReLU,
    Sequential,
)
from .serialization import (
    CheckpointError,
    atomic_savez,
    load_checkpoint,
    save_checkpoint,
)
from .summary import LayerSummary, format_summary, summarize
from .tensor import Tensor, as_tensor

__all__ = [
    "Tensor",
    "as_tensor",
    "Function",
    "no_grad",
    "Module",
    "Parameter",
    "Sequential",
    "Conv2d",
    "Linear",
    "BatchNorm2d",
    "ReLU",
    "Identity",
    "Flatten",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "functional",
    "graph",
    "init",
    "kernels",
    "optim",
    "schedule",
    "data",
    "serialization",
    "save_checkpoint",
    "atomic_savez",
    "CheckpointError",
    "load_checkpoint",
    "LayerSummary",
    "summarize",
    "format_summary",
]
