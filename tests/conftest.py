"""Shared fixtures: tiny datasets and pretrained models.

Session-scoped so the expensive bits (pretraining a float network) run
once per pytest invocation.
"""

import numpy as np
import pytest

from repro import models
from repro.baselines import PretrainConfig, pretrain
from repro.datasets.synthetic import SyntheticImageConfig, _make_splits
from repro.experiments import build_task
from repro.nn.data import DataLoader
from repro.quantization import quantize_model


TINY_IMAGE_SIZE = 12


@pytest.fixture(scope="session")
def tiny_splits():
    """A small, learnable synthetic task (12x12, 10 classes)."""
    config = SyntheticImageConfig(
        n_classes=10, image_size=TINY_IMAGE_SIZE, channels=3, seed=0
    )
    return _make_splits(config, n_train=600, n_val=200, n_test=200, augment=False)


@pytest.fixture(scope="session")
def tiny_loaders(tiny_splits):
    train = DataLoader(tiny_splits.train, batch_size=64, shuffle=True, seed=0)
    val = DataLoader(tiny_splits.val, batch_size=100)
    return train, val


@pytest.fixture(scope="session")
def pretrained_state(tiny_loaders):
    """State dict + baseline accuracy of a pretrained SmallConvNet."""
    train, val = tiny_loaders
    net = models.SmallConvNet(width=8, rng=np.random.default_rng(0))
    result = pretrain(
        net, train, val,
        PretrainConfig(epochs=8, lr=0.05, weight_decay=0.0),
    )
    return net.state_dict(), result.baseline_accuracy


@pytest.fixture()
def pretrained_net(pretrained_state):
    """A fresh pretrained SmallConvNet (safe to mutate per test)."""
    state, baseline = pretrained_state
    net = models.SmallConvNet(width=8, rng=np.random.default_rng(0))
    net.load_state_dict(state)
    return net, baseline


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def micro_resnet20():
    """The micro-scale ResNet-20 task and its pretrained float state."""
    task = build_task("resnet20_cifar10", "micro")
    model, _ = task.pretrained_model()
    return task, model.state_dict()


@pytest.fixture()
def resnet_factory(micro_resnet20):
    """Builds (model, train, val) for the micro ResNet-20 under a policy."""
    task, state = micro_resnet20

    def build(policy):
        net = task.make_model()
        net.load_state_dict(state)
        quantize_model(net, policy)
        train, val = task.loaders(seed=0)
        return net, train, val

    return build
