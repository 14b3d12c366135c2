"""``repro.models`` — the network architectures used in the paper."""

from .resnet import (
    BasicBlock,
    Bottleneck,
    CifarResNet,
    ResNet,
    resnet18,
    resnet20,
    resnet32,
    resnet34,
    resnet44,
    resnet50,
    resnet56,
    run_stages,
)
from .small import MLP, LeNet, SmallConvNet

__all__ = [
    "BasicBlock",
    "Bottleneck",
    "CifarResNet",
    "ResNet",
    "resnet18",
    "resnet20",
    "resnet32",
    "resnet34",
    "resnet44",
    "resnet50",
    "resnet56",
    "run_stages",
    "MLP",
    "LeNet",
    "SmallConvNet",
]
