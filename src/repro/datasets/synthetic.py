"""Synthetic image-classification datasets standing in for CIFAR10/ImageNet.

The environment has no network access and no dataset files, so the paper's
CIFAR10 and ImageNet workloads are substituted with deterministic synthetic
tasks (see DESIGN.md).  The generator produces class-conditional images
that share the properties the CCQ experiments actually depend on:

* a convolutional network can learn the task well but not instantly
  (per-class smooth spatial templates + within-class geometric jitter
  + additive noise keep validation accuracy below the ceiling until the
  network has trained for a while);
* quantizing the network *hurts* measurably and fine-tuning *recovers*
  the loss, giving the valley/peak learning curves of Fig. 2;
* different layers matter differently, so the competition has a real
  signal to learn from.

Images are standardized to roughly zero mean / unit variance, matching the
normalized-input regime the first layer's signed quantizer expects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..nn.data import ArrayDataset, Compose, RandomCrop, RandomHorizontalFlip

__all__ = [
    "SyntheticImageConfig",
    "generate_class_templates",
    "generate_dataset",
    "SyntheticSplits",
    "make_synthetic_cifar10",
    "make_synthetic_imagenet",
]


@dataclass(frozen=True)
class SyntheticImageConfig:
    """Generator parameters for a synthetic classification task."""

    n_classes: int = 10
    image_size: int = 32
    channels: int = 3
    templates_per_class: int = 2
    smoothness: float = 1.5     # Gaussian-filter sigma for the templates
    max_shift: int = 5          # within-class translation jitter (pixels)
    noise_std: float = 1.5      # additive Gaussian noise after mixing
    amplitude_jitter: float = 0.4
    seed: int = 0


def generate_class_templates(config: SyntheticImageConfig) -> np.ndarray:
    """Smooth random spatial templates, ``(classes, T, C, H, W)``.

    Templates are white noise low-passed with a Gaussian filter, then
    standardized; smoothness controls how "image-like" (spatially
    correlated) the class evidence is.
    """
    from scipy import ndimage  # imported here: ``import repro`` needs no scipy

    rng = np.random.default_rng(config.seed)
    shape = (
        config.n_classes,
        config.templates_per_class,
        config.channels,
        config.image_size,
        config.image_size,
    )
    raw = rng.normal(size=shape)
    smooth = ndimage.gaussian_filter(
        raw, sigma=(0, 0, 0, config.smoothness, config.smoothness)
    )
    std = smooth.std(axis=(-1, -2), keepdims=True)
    return smooth / np.maximum(std, 1e-8)


def generate_dataset(
    config: SyntheticImageConfig,
    n_samples: int,
    split_seed: int = 1,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample ``(images, labels)`` from the class-conditional generator.

    Each sample mixes its class's templates with jittered amplitudes,
    applies a random circular shift (translation invariance pressure) and
    adds pixel noise.
    """
    templates = generate_class_templates(config)
    rng = np.random.default_rng(split_seed)
    labels = rng.integers(0, config.n_classes, size=n_samples)
    images = np.empty(
        (n_samples, config.channels, config.image_size, config.image_size)
    )
    t_count = config.templates_per_class
    for i, label in enumerate(labels):
        weights = 1.0 + config.amplitude_jitter * rng.normal(size=t_count)
        mixed = np.tensordot(weights, templates[label], axes=(0, 0))
        if config.max_shift:
            dx = int(rng.integers(-config.max_shift, config.max_shift + 1))
            dy = int(rng.integers(-config.max_shift, config.max_shift + 1))
            mixed = np.roll(mixed, (dy, dx), axis=(1, 2))
        noise = config.noise_std * rng.normal(size=mixed.shape)
        images[i] = mixed + noise
    # Global standardization (the usual normalize transform).
    images -= images.mean()
    images /= images.std()
    return images, labels.astype(np.int64)


@dataclass
class SyntheticSplits:
    """Train / validation / test splits of one synthetic task."""

    train: ArrayDataset
    val: ArrayDataset
    test: ArrayDataset
    config: SyntheticImageConfig = field(
        default_factory=SyntheticImageConfig
    )

    @property
    def n_classes(self) -> int:
        return self.config.n_classes

    @property
    def image_size(self) -> int:
        return self.config.image_size


def _make_splits(
    config: SyntheticImageConfig,
    n_train: int,
    n_val: int,
    n_test: int,
    augment: bool,
) -> SyntheticSplits:
    train_x, train_y = generate_dataset(config, n_train, split_seed=1)
    val_x, val_y = generate_dataset(config, n_val, split_seed=2)
    test_x, test_y = generate_dataset(config, n_test, split_seed=3)
    transform = None
    if augment:
        transform = Compose(
            [RandomCrop(config.image_size, padding=2), RandomHorizontalFlip()]
        )
    return SyntheticSplits(
        train=ArrayDataset(train_x, train_y, transform=transform),
        val=ArrayDataset(val_x, val_y),
        test=ArrayDataset(test_x, test_y),
        config=config,
    )


def make_synthetic_cifar10(
    n_train: int = 2000,
    n_val: int = 500,
    n_test: int = 500,
    image_size: int = 32,
    augment: bool = True,
    seed: int = 0,
) -> SyntheticSplits:
    """The CIFAR10 stand-in: 10 classes, 3x32x32 by default."""
    config = SyntheticImageConfig(
        n_classes=10, image_size=image_size, channels=3, seed=seed
    )
    return _make_splits(config, n_train, n_val, n_test, augment)


def make_synthetic_imagenet(
    n_classes: int = 100,
    n_train: int = 4000,
    n_val: int = 1000,
    n_test: int = 1000,
    image_size: int = 32,
    augment: bool = True,
    seed: int = 10,
) -> SyntheticSplits:
    """The ImageNet stand-in: more classes, harder mixing, same machinery.

    The class count and resolution are configurable so experiments can
    scale between CI-speed smoke runs and the fuller `paper` scale.
    """
    config = SyntheticImageConfig(
        n_classes=n_classes,
        image_size=image_size,
        channels=3,
        templates_per_class=3,
        noise_std=1.7,
        seed=seed,
    )
    return _make_splits(config, n_train, n_val, n_test, augment)
