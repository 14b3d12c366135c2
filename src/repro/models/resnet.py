"""ResNet architectures used throughout the paper's evaluation.

Two families are provided, matching He et al. (2016):

* **CIFAR-style** (:func:`resnet20` / 32 / 44 / 56): a 3x3 stem into three
  stages of ``n`` basic blocks at 16/32/64 channels.
* **ImageNet-style** (:func:`resnet18` / 34 / 50): a 7x7/2 stem + max-pool
  into four stages at 64..512 channels with basic (18/34) or bottleneck
  (50) blocks.

Because the reproduction substitutes a scaled synthetic dataset for
ImageNet (see DESIGN.md), every constructor accepts ``width_mult`` (shrinks
all channel counts) and ``small_input`` (swaps the 7x7/2 + max-pool stem
for a CIFAR-style 3x3/1 stem) so the full topology — including the strongly
size-skewed layer spectrum that drives the paper's memory-aware λ knob —
can be trained on CPU at low resolution.

Both families expose :meth:`stages`: the stem, every residual block and
the pooled classifier head, in order, each with the modules it owns.
``forward`` is the fold of that list, so a caller may run the network
from any stage boundary — the CCQ probe engine feeds a candidate's first
changed stage its recorded input instead of re-running the frozen front
of the network.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..nn import functional as F
from ..nn.tensor import Tensor

__all__ = [
    "run_stages",
    "BasicBlock",
    "Bottleneck",
    "ResNet",
    "CifarResNet",
    "resnet20",
    "resnet32",
    "resnet44",
    "resnet56",
    "resnet18",
    "resnet34",
    "resnet50",
]


# One stage of a staged network: the callable that runs it and the
# modules it owns (a quantized layer belongs to the stage owning it or
# one of its ancestors).
Stage = Tuple[Callable[[Tensor], Tensor], Tuple[nn.Module, ...]]


def run_stages(stages: Sequence[Stage], x: Tensor) -> Tensor:
    """Feed ``x`` through ``stages`` in order (the fold ``forward`` is)."""
    for run, _ in stages:
        x = run(x)
    return x


def _head(fc: nn.Module) -> Stage:
    return (lambda x: fc(F.global_avg_pool2d(x)), (fc,))


def _channels(base: int, width_mult: float) -> int:
    """Scale a channel count, never dropping below 4."""
    return max(4, int(round(base * width_mult)))


class BasicBlock(nn.Module):
    """Two 3x3 convolutions with an identity (or projection) shortcut."""

    expansion = 1

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.conv1 = nn.Conv2d(
            in_channels, out_channels, 3, stride=stride, padding=1,
            bias=False, rng=rng,
        )
        self.bn1 = nn.BatchNorm2d(out_channels)
        self.conv2 = nn.Conv2d(
            out_channels, out_channels, 3, padding=1, bias=False, rng=rng
        )
        self.bn2 = nn.BatchNorm2d(out_channels)
        if stride != 1 or in_channels != out_channels:
            self.shortcut = nn.Sequential(
                nn.Conv2d(
                    in_channels, out_channels, 1, stride=stride,
                    bias=False, rng=rng,
                ),
                nn.BatchNorm2d(out_channels),
            )
        else:
            self.shortcut = nn.Identity()

    def forward(self, x: Tensor) -> Tensor:
        out = self.bn1(self.conv1(x)).relu()
        out = self.bn2(self.conv2(out))
        return (out + self.shortcut(x)).relu()


class Bottleneck(nn.Module):
    """1x1 -> 3x3 -> 1x1 bottleneck block with 4x expansion (ResNet-50)."""

    expansion = 4

    def __init__(
        self,
        in_channels: int,
        width: int,
        stride: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        out_channels = width * self.expansion
        self.conv1 = nn.Conv2d(in_channels, width, 1, bias=False, rng=rng)
        self.bn1 = nn.BatchNorm2d(width)
        self.conv2 = nn.Conv2d(
            width, width, 3, stride=stride, padding=1, bias=False, rng=rng
        )
        self.bn2 = nn.BatchNorm2d(width)
        self.conv3 = nn.Conv2d(width, out_channels, 1, bias=False, rng=rng)
        self.bn3 = nn.BatchNorm2d(out_channels)
        if stride != 1 or in_channels != out_channels:
            self.shortcut = nn.Sequential(
                nn.Conv2d(
                    in_channels, out_channels, 1, stride=stride,
                    bias=False, rng=rng,
                ),
                nn.BatchNorm2d(out_channels),
            )
        else:
            self.shortcut = nn.Identity()

    def forward(self, x: Tensor) -> Tensor:
        out = self.bn1(self.conv1(x)).relu()
        out = self.bn2(self.conv2(out)).relu()
        out = self.bn3(self.conv3(out))
        return (out + self.shortcut(x)).relu()


class CifarResNet(nn.Module):
    """CIFAR-style ResNet: 3 stages of ``n`` basic blocks (depth = 6n + 2)."""

    def __init__(
        self,
        num_blocks: int,
        num_classes: int = 10,
        width_mult: float = 1.0,
        in_channels: int = 3,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        widths = [_channels(c, width_mult) for c in (16, 32, 64)]
        self.conv1 = nn.Conv2d(
            in_channels, widths[0], 3, padding=1, bias=False, rng=rng
        )
        self.bn1 = nn.BatchNorm2d(widths[0])
        self.layer1 = self._make_stage(widths[0], widths[0], num_blocks, 1, rng)
        self.layer2 = self._make_stage(widths[0], widths[1], num_blocks, 2, rng)
        self.layer3 = self._make_stage(widths[1], widths[2], num_blocks, 2, rng)
        self.fc = nn.Linear(widths[2], num_classes, rng=rng)

    @staticmethod
    def _make_stage(
        in_channels: int,
        out_channels: int,
        num_blocks: int,
        stride: int,
        rng: np.random.Generator,
    ) -> nn.Sequential:
        blocks: List[nn.Module] = []
        for i in range(num_blocks):
            blocks.append(
                BasicBlock(
                    in_channels if i == 0 else out_channels,
                    out_channels,
                    stride=stride if i == 0 else 1,
                    rng=rng,
                )
            )
        return nn.Sequential(*blocks)

    def stages(self) -> List[Stage]:
        """Stem, the residual blocks in order, then the pooled head."""
        conv1, bn1 = self.conv1, self.bn1
        stem: Stage = (lambda x: bn1(conv1(x)).relu(), (conv1, bn1))
        blocks: List[Stage] = [
            (block, (block,))
            for layer in (self.layer1, self.layer2, self.layer3)
            for block in layer
        ]
        return [stem, *blocks, _head(self.fc)]

    def forward(self, x: Tensor) -> Tensor:
        return run_stages(self.stages(), x)


class ResNet(nn.Module):
    """ImageNet-style ResNet with basic or bottleneck blocks."""

    def __init__(
        self,
        block: type,
        stage_blocks: Sequence[int],
        num_classes: int = 1000,
        width_mult: float = 1.0,
        small_input: bool = False,
        in_channels: int = 3,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        widths = [_channels(c, width_mult) for c in (64, 128, 256, 512)]
        self.small_input = small_input
        if small_input:
            self.conv1 = nn.Conv2d(
                in_channels, widths[0], 3, padding=1, bias=False, rng=rng
            )
            self.maxpool = nn.Identity()
        else:
            self.conv1 = nn.Conv2d(
                in_channels, widths[0], 7, stride=2, padding=3,
                bias=False, rng=rng,
            )
            self.maxpool = nn.MaxPool2d(3, stride=2, padding=1)
        self.bn1 = nn.BatchNorm2d(widths[0])

        strides = [1, 2, 2, 2]
        in_c = widths[0]
        for stage, (n_blocks, width, stride) in enumerate(
            zip(stage_blocks, widths, strides), start=1
        ):
            blocks: List[nn.Module] = []
            for i in range(n_blocks):
                blocks.append(
                    block(in_c, width, stride=stride if i == 0 else 1, rng=rng)
                )
                in_c = width * block.expansion
            self.add_module(f"layer{stage}", nn.Sequential(*blocks))
        self.fc = nn.Linear(in_c, num_classes, rng=rng)

    def stages(self) -> List[Stage]:
        """Stem (with the max-pool), the blocks in order, then the head."""
        conv1, bn1, maxpool = self.conv1, self.bn1, self.maxpool
        stem: Stage = (
            lambda x: maxpool(bn1(conv1(x)).relu()), (conv1, bn1, maxpool)
        )
        blocks: List[Stage] = [
            (block, (block,))
            for layer in (self.layer1, self.layer2, self.layer3, self.layer4)
            for block in layer
        ]
        return [stem, *blocks, _head(self.fc)]

    def forward(self, x: Tensor) -> Tensor:
        return run_stages(self.stages(), x)


def resnet20(num_classes: int = 10, **kwargs) -> CifarResNet:
    """ResNet-20 for CIFAR-sized inputs (the paper's CIFAR10 network)."""
    return CifarResNet(3, num_classes=num_classes, **kwargs)


def resnet32(num_classes: int = 10, **kwargs) -> CifarResNet:
    """ResNet-32 for CIFAR-sized inputs."""
    return CifarResNet(5, num_classes=num_classes, **kwargs)


def resnet44(num_classes: int = 10, **kwargs) -> CifarResNet:
    """ResNet-44 for CIFAR-sized inputs."""
    return CifarResNet(7, num_classes=num_classes, **kwargs)


def resnet56(num_classes: int = 10, **kwargs) -> CifarResNet:
    """ResNet-56 for CIFAR-sized inputs."""
    return CifarResNet(9, num_classes=num_classes, **kwargs)


def resnet18(num_classes: int = 1000, **kwargs) -> ResNet:
    """ResNet-18 (basic blocks, [2, 2, 2, 2])."""
    return ResNet(BasicBlock, [2, 2, 2, 2], num_classes=num_classes, **kwargs)


def resnet34(num_classes: int = 1000, **kwargs) -> ResNet:
    """ResNet-34 (basic blocks, [3, 4, 6, 3])."""
    return ResNet(BasicBlock, [3, 4, 6, 3], num_classes=num_classes, **kwargs)


def resnet50(num_classes: int = 1000, **kwargs) -> ResNet:
    """ResNet-50 (bottleneck blocks, [3, 4, 6, 3])."""
    return ResNet(Bottleneck, [3, 4, 6, 3], num_classes=num_classes, **kwargs)
