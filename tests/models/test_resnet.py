"""ResNet family: shapes, parameter counts, topology properties."""

import numpy as np
import pytest

from repro import models
from repro.nn import functional as F
from repro.nn import no_grad
from repro.nn.tensor import Tensor


def rng():
    return np.random.default_rng(0)


class TestCifarResNets:
    @pytest.mark.parametrize("ctor,blocks", [
        (models.resnet20, 3), (models.resnet32, 5),
        (models.resnet44, 7), (models.resnet56, 9),
    ])
    def test_depth_formula(self, ctor, blocks):
        net = ctor(width_mult=0.25, rng=rng())
        convs = [
            m for _, m in net.named_modules()
            if m.__class__.__name__ == "Conv2d"
        ]
        # 6n + 2 layers: 6n conv (+ shortcut projections) + stem + fc.
        # Count only the non-shortcut convs: stem + 6n.
        n_main = 1 + 6 * blocks
        n_shortcut = 2  # one projection per stage transition
        assert len(convs) == n_main + n_shortcut

    def test_forward_shape(self):
        net = models.resnet20(num_classes=10, width_mult=0.25, rng=rng())
        out = net(Tensor(np.random.default_rng(1).normal(size=(2, 3, 16, 16))))
        assert out.shape == (2, 10)

    def test_resnet20_param_count_full_width(self):
        net = models.resnet20(width_mult=1.0, rng=rng())
        # Published ResNet-20 has ~0.27M parameters.
        assert 0.25e6 < net.num_parameters() < 0.30e6

    def test_width_mult_scales_params(self):
        full = models.resnet20(width_mult=1.0, rng=rng()).num_parameters()
        half = models.resnet20(width_mult=0.5, rng=rng()).num_parameters()
        assert half < full / 3  # conv params scale ~quadratically

    def test_spatial_downsampling(self):
        net = models.resnet20(width_mult=0.25, rng=rng())
        # Stage strides halve the spatial dims twice: 16 -> 8 -> 4.
        x = Tensor(np.zeros((1, 3, 16, 16)))
        out = net.layer3(net.layer2(net.layer1(net.bn1(net.conv1(x)).relu())))
        assert out.shape[2:] == (4, 4)

    def test_trains_one_step(self):
        net = models.resnet20(width_mult=0.25, rng=rng())
        x = Tensor(np.random.default_rng(2).normal(size=(2, 3, 16, 16)))
        y = np.array([1, 2])
        loss = F.cross_entropy(net(x), y)
        loss.backward()
        grads = [p.grad for p in net.parameters()]
        assert all(g is not None for g in grads)


class TestImageNetResNets:
    def test_resnet18_small_input_shape(self):
        net = models.resnet18(
            num_classes=100, width_mult=0.125, small_input=True, rng=rng()
        )
        out = net(Tensor(np.zeros((1, 3, 32, 32))))
        assert out.shape == (1, 100)

    def test_resnet18_full_stem_downsamples(self):
        net = models.resnet18(
            num_classes=10, width_mult=0.125, small_input=False, rng=rng()
        )
        out = net(Tensor(np.zeros((1, 3, 64, 64))))
        assert out.shape == (1, 10)

    def test_resnet50_uses_bottlenecks(self):
        net = models.resnet50(
            num_classes=10, width_mult=0.0625, small_input=True, rng=rng()
        )
        bottlenecks = [
            m for _, m in net.named_modules()
            if isinstance(m, models.Bottleneck)
        ]
        assert len(bottlenecks) == 3 + 4 + 6 + 3

    def test_resnet18_block_counts(self):
        net = models.resnet18(width_mult=0.125, small_input=True, rng=rng())
        basics = [
            m for _, m in net.named_modules()
            if isinstance(m, models.BasicBlock)
        ]
        assert len(basics) == 8

    def test_bottleneck_expansion(self):
        block = models.Bottleneck(16, 8, rng=rng())
        out = block(Tensor(np.zeros((1, 16, 4, 4))))
        assert out.shape == (1, 32, 4, 4)

    def test_layer_size_skew_exists(self):
        # The ImageNet topology has strongly size-skewed layers, which the
        # memory-aware lambda relies on.
        net = models.resnet18(width_mult=0.25, small_input=True, rng=rng())
        sizes = [
            m.weight.size for _, m in net.named_modules()
            if m.__class__.__name__ == "Conv2d"
        ]
        assert max(sizes) / min(sizes) > 50


class TestBlocks:
    def test_basic_block_identity_shortcut(self):
        block = models.BasicBlock(8, 8, stride=1, rng=rng())
        assert block.shortcut.__class__.__name__ == "Identity"

    def test_basic_block_projection_shortcut(self):
        block = models.BasicBlock(8, 16, stride=2, rng=rng())
        assert block.shortcut.__class__.__name__ == "Sequential"
        out = block(Tensor(np.zeros((1, 8, 8, 8))))
        assert out.shape == (1, 16, 4, 4)

    def test_relu_output_nonnegative(self):
        block = models.BasicBlock(4, 4, rng=rng())
        out = block(Tensor(np.random.default_rng(0).normal(size=(2, 4, 6, 6))))
        assert out.data.min() >= 0.0


# The micro-scale widths of the three paper networks.
STAGED_NETS = {
    "resnet20": lambda: models.resnet20(width_mult=0.25, rng=rng()),
    "resnet18": lambda: models.resnet18(
        num_classes=4, width_mult=0.125, small_input=True, rng=rng()
    ),
    "resnet18_full_stem": lambda: models.resnet18(
        num_classes=4, width_mult=0.125, small_input=False, rng=rng()
    ),
    "resnet50": lambda: models.resnet50(
        num_classes=4, width_mult=0.0625, small_input=True, rng=rng()
    ),
}


@pytest.fixture(params=sorted(STAGED_NETS))
def staged_net(request):
    """A quantized (PACT, 4-bit) network in inference mode."""
    from repro.quantization import quantize_model, set_uniform_bits

    net = STAGED_NETS[request.param]()
    quantize_model(net, "pact")
    set_uniform_bits(net, 4, 4)
    net.eval()
    return net


class TestStages:
    def test_fold_of_stages_is_forward(self, staged_net):
        x = Tensor(np.random.default_rng(3).normal(size=(3, 3, 16, 16)))
        with no_grad():
            logits = staged_net(x).data
            folded = models.run_stages(staged_net.stages(), x).data
        assert logits.tobytes() == folded.tobytes()

    def test_every_suffix_reproduces_the_logits(self, staged_net):
        """Feeding stage k's input, recorded from a full pass, through
        ``stages()[k:]`` gives bit-identical logits, for every k."""
        x = Tensor(np.random.default_rng(4).normal(size=(3, 3, 16, 16)))
        stages = staged_net.stages()
        recorded = []
        with no_grad():
            out = x
            for run, _ in stages:
                recorded.append(out.data.copy(order="K"))
                out = run(out)
            logits = staged_net(x).data
            for k in range(len(stages)):
                suffix = models.run_stages(
                    stages[k:], Tensor(recorded[k])
                ).data
                assert suffix.tobytes() == logits.tobytes(), k

    def test_every_layer_owned_by_exactly_one_stage(self, staged_net):
        from repro.quantization import quantized_layers

        owners = {}
        for k, (_, owned) in enumerate(staged_net.stages()):
            for module in owned:
                for inner in module.modules():
                    assert id(inner) not in owners
                    owners[id(inner)] = k
        layers = quantized_layers(staged_net)
        assert all(id(layer) in owners for _, layer in layers)
        # Stage order is forward order.
        stage_of = [owners[id(layer)] for _, layer in layers]
        assert stage_of == sorted(stage_of)
