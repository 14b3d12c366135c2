"""Shape tracing through non-trivial topologies (maxpool stems, MLPs)."""

import numpy as np
import pytest

from repro import models
from repro.hardware import network_power, trace_layer_macs
from repro.nn.summary import summarize
from repro.quantization import quantize_model, set_uniform_bits, state_digest


class TestFullStemTracing:
    def test_resnet18_with_maxpool_stem(self):
        net = models.resnet18(
            num_classes=10, width_mult=0.125, small_input=False,
            rng=np.random.default_rng(0),
        )
        entries = trace_layer_macs(net, (3, 64, 64))
        # stem + 16 block convs + 3 projections + fc = 21
        assert len(entries) == 21
        # The stem conv sees the full 64x64 input at stride 2.
        stem = entries[0]
        assert stem.name == "conv1"
        expected = 32 * 32 * 7 * 7 * 3 * net.conv1.out_channels
        assert stem.macs == expected

    def test_small_input_stem_has_more_spatial_macs_per_channel(self):
        full = models.resnet18(num_classes=10, width_mult=0.125,
                               small_input=False,
                               rng=np.random.default_rng(0))
        small = models.resnet18(num_classes=10, width_mult=0.125,
                                small_input=True,
                                rng=np.random.default_rng(0))
        # Same image: the small-input stem (3x3 stride 1) keeps full
        # resolution into layer1, the 7x7/2 + maxpool stem does not.
        full_l1 = trace_layer_macs(full, (3, 32, 32))[1]
        small_l1 = trace_layer_macs(small, (3, 32, 32))[1]
        assert small_l1.macs > full_l1.macs

    def test_bottleneck_macs_consistent_with_summary(self):
        net = models.resnet50(
            num_classes=10, width_mult=0.0625, small_input=True,
            rng=np.random.default_rng(0),
        )
        traced = {e.name: e.macs for e in trace_layer_macs(net, (3, 16, 16))}
        summarized = {
            r.name: r.macs for r in summarize(net, (3, 16, 16))
        }
        assert traced == summarized

    def test_lenet_with_pools(self):
        net = models.LeNet(rng=np.random.default_rng(0))
        entries = trace_layer_macs(net, (3, 32, 32))
        names = [e.name for e in entries]
        assert names == ["conv1", "conv2", "fc1", "fc2", "fc3"]
        # conv2 runs on the pooled 14x14 map -> 10x10 output.
        assert entries[1].macs == 10 * 10 * 5 * 5 * 6 * 16


_ENTRY_POINTS = {
    "trace_layer_macs": trace_layer_macs,
    "network_power": network_power,
    "summarize": summarize,
}


class TestShapeTraceLeavesStateAsFound:
    """The zero batch a shape trace pushes through the caller's live
    model must not initialize lazy quantizer state: LSQ would set its
    activation step from all-zero inputs and never from real data."""

    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    @pytest.mark.parametrize("policy", ["pact", "lsq", "qil", "lqnets"])
    def test_state_digest_unchanged(self, policy, entry):
        net = models.SmallConvNet(width=4, rng=np.random.default_rng(0))
        quantize_model(net, policy)
        set_uniform_bits(net, 4, 4)
        net.train()
        before = state_digest(net)
        _ENTRY_POINTS[entry](net, (3, 12, 12))
        assert state_digest(net) == before
        assert net.training
