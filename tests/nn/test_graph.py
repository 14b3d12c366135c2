"""The model graph every per-layer reader shares (``repro.nn.graph``)."""

import numpy as np
import pytest

from repro import models, nn
from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.graph import trace
from repro.quantization import quantize_model, quantized_layers
from repro.quantization.qmodules import QuantConv2d, QuantLinear

# (model, single-sample input shape, residual blocks); micro scale.
NETWORKS = {
    "resnet20": (lambda rng: models.resnet20(width_mult=0.25, rng=rng),
                 (3, 8, 8), 9),
    "resnet18-small-stem": (
        lambda rng: models.resnet18(num_classes=4, width_mult=0.125,
                                    small_input=True, rng=rng),
        (3, 8, 8), 8),
    "resnet18-full-stem": (
        lambda rng: models.resnet18(num_classes=4, width_mult=0.125,
                                    small_input=False, rng=rng),
        (3, 16, 16), 8),
    "resnet50": (
        lambda rng: models.resnet50(num_classes=4, width_mult=0.0625,
                                    small_input=True, rng=rng),
        (3, 8, 8), 16),
    "lenet": (lambda rng: models.LeNet(rng=rng), (3, 32, 32), 0),
    "mlp": (lambda rng: models.MLP(48, [16, 12], 10, rng=rng), (3, 4, 4), 0),
}


def _traced(name, quantized=False):
    make, shape, _ = NETWORKS[name]
    net = make(np.random.default_rng(0))
    if quantized:
        quantize_model(net, "pact")
    net.eval()
    return net, trace(net, np.zeros((2, *shape)))


@pytest.mark.parametrize("name", sorted(NETWORKS))
class TestGraph:
    def test_layers_in_quantized_layers_order(self, name):
        """``power_of_config`` zips its ``bit_config`` with these."""
        net, graph = _traced(name, quantized=True)
        assert [n.name for n in graph.layers()] == [
            layer_name for layer_name, _ in quantized_layers(net)
        ]

    def test_one_add_node_per_residual_block(self, name):
        _, graph = _traced(name)
        adds = [n for n in graph.nodes if n.kind == "add"]
        assert len(adds) == NETWORKS[name][2]
        assert all(isinstance(t, Tensor) for n in adds for t in n.inputs)

    def test_every_conv_and_linear_appears_once(self, name):
        net, graph = _traced(name)
        layers = [n for n in graph.nodes if n.kind == "layer"]
        expected = [
            m for _, m in net.named_modules()
            if isinstance(m, (nn.Conv2d, nn.Linear))
        ]
        assert sorted(id(n.module) for n in layers) == sorted(
            id(m) for m in expected
        )
        names = dict((id(m), n) for n, m in net.named_modules())
        assert all(n.name == names[id(n.module)] for n in layers)

    def test_trace_output_is_the_forward_output(self, name):
        net, graph = _traced(name)
        with nn.no_grad():
            want = net(Tensor(np.zeros(graph.input.shape))).data
        np.testing.assert_array_equal(graph.output.data, want)


class _Raises(nn.Module):
    def __init__(self):
        super().__init__()
        self.conv = nn.Conv2d(3, 4, 3, rng=np.random.default_rng(0))

    def forward(self, x):
        out = F.max_pool2d(self.conv(x).relu(), 2)
        out = out + out
        raise RuntimeError("forward failed")


def test_patches_restored_after_a_forward_that_raises():
    patched = [
        (cls, "forward")
        for cls in (nn.Conv2d, nn.Linear, nn.BatchNorm2d,
                    QuantConv2d, QuantLinear)
    ] + [
        (Tensor, attr) for attr in ("relu", "flatten", "mean", "__add__")
    ] + [
        (F, fn) for fn in ("max_pool2d", "avg_pool2d", "global_avg_pool2d")
    ]
    before = {(obj, attr): vars(obj)[attr] for obj, attr in patched}
    with pytest.raises(RuntimeError, match="forward failed"):
        trace(_Raises(), np.zeros((1, 3, 8, 8)))
    for (obj, attr), original in before.items():
        assert vars(obj)[attr] is original, f"{obj.__name__}.{attr}"
