"""Quantized module wrappers and model conversion."""

import numpy as np
import pytest

from repro import models, nn
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.quantization import (
    QuantConv2d,
    QuantLinear,
    available_policies,
    collect_quantizer_parameters,
    collect_regularization,
    get_bit_config,
    get_policy,
    quantize_model,
    quantized_layers,
    register_policy,
    set_bit_config,
    set_uniform_bits,
)
from repro.quantization.policy import QuantPolicy


def small_net(seed=0):
    return models.SmallConvNet(width=4, rng=np.random.default_rng(seed))


class TestConversion:
    def test_replaces_all_convs_and_linears(self):
        net = quantize_model(small_net(), "dorefa")
        layers = quantized_layers(net)
        assert len(layers) == 4  # conv1..3 + fc
        assert isinstance(layers[0][1], QuantConv2d)
        assert isinstance(layers[-1][1], QuantLinear)

    def test_first_layer_gets_signed_act_quantizer(self):
        net = quantize_model(small_net(), "dorefa")
        layers = quantized_layers(net)
        assert layers[0][1].act_quantizer.signed is True
        assert layers[1][1].act_quantizer.signed is False

    @pytest.mark.parametrize("policy", ["dorefa", "pact", "lsq"])
    def test_first_linear_gets_signed_act_quantizer(self, policy):
        """An MLP's first layer reads the raw, zero-centred input too."""
        net = models.MLP(12, [8], 4, rng=np.random.default_rng(0))
        layers = quantized_layers(quantize_model(net, policy))
        assert all(isinstance(layer, QuantLinear) for _, layer in layers)
        assert [layer.act_quantizer.signed for _, layer in layers] == [
            True, False
        ]

    def test_skip_leaves_layer_float(self):
        net = quantize_model(small_net(), "dorefa", skip=("fc",))
        names = [n for n, _ in quantized_layers(net)]
        assert "fc" not in names

    def test_shares_parameter_tensors(self):
        net = small_net()
        original_weight = net.conv1.weight
        quantize_model(net, "dorefa")
        assert net.conv1.weight is original_weight

    def test_idempotent(self):
        net = quantize_model(small_net(), "dorefa")
        quantize_model(net, "dorefa")
        assert len(quantized_layers(net)) == 4

    def test_fp_when_bits_unset(self, rng):
        net_q = quantize_model(small_net(3), "dorefa")
        net_f = small_net(3)
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        np.testing.assert_allclose(net_q(x).data, net_f(x).data)

    def test_resnet_conversion_counts(self):
        net = models.resnet20(width_mult=0.25, rng=np.random.default_rng(0))
        quantize_model(net, "pact")
        # ResNet20: 19 convs + 2 shortcut convs + 1 fc = 22
        assert len(quantized_layers(net)) == 22

    def test_unknown_policy_raises(self):
        with pytest.raises(KeyError, match="unknown quantization policy"):
            quantize_model(small_net(), "nonexistent")


class TestBitConfiguration:
    def test_set_uniform(self):
        net = quantize_model(small_net(), "dorefa")
        set_uniform_bits(net, 4, 4)
        for _, layer in quantized_layers(net):
            assert layer.w_bits == 4 and layer.a_bits == 4

    def test_first_last_fp_override(self):
        net = quantize_model(small_net(), "dorefa")
        set_uniform_bits(net, 3, 3, first_last_w_bits=None,
                         first_last_a_bits=None)
        layers = quantized_layers(net)
        assert layers[0][1].w_bits is None
        assert layers[-1][1].w_bits is None
        assert layers[1][1].w_bits == 3

    def test_get_set_roundtrip(self):
        net = quantize_model(small_net(), "dorefa")
        set_uniform_bits(net, 4, 2)
        config = get_bit_config(net)
        set_uniform_bits(net, 8, 8)
        set_bit_config(net, config)
        assert get_bit_config(net) == config

    def test_set_config_unknown_layer_raises(self):
        net = quantize_model(small_net(), "dorefa")
        with pytest.raises(KeyError):
            set_bit_config(net, {"bogus": (4, 4)})

    def test_weight_size_bits(self):
        net = quantize_model(small_net(), "dorefa")
        layers = quantized_layers(net)
        _, fc = layers[-1]
        fc.w_bits = 4
        assert fc.weight_size_bits() == fc.weight.size * 4
        fc.w_bits = None
        assert fc.weight_size_bits() == fc.weight.size * 32


class TestQuantizedForward:
    def test_quantization_changes_output(self, rng):
        net = quantize_model(small_net(), "dorefa")
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        fp_out = net(x).data.copy()
        set_uniform_bits(net, 2, 2)
        q_out = net(x).data
        assert not np.allclose(fp_out, q_out)

    def test_backward_reaches_all_weights(self, rng):
        net = quantize_model(small_net(), "pact")
        set_uniform_bits(net, 4, 4)
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        y = rng.integers(0, 10, size=2)
        F.cross_entropy(net(x), y).backward()
        for _, layer in quantized_layers(net):
            assert layer.weight.grad is not None

    @pytest.mark.parametrize("policy", sorted(["dorefa", "wrpn", "pact",
                                               "pact_sawb", "lsq", "lqnets"]))
    def test_every_policy_trains_one_step(self, policy, rng):
        net = quantize_model(small_net(), policy)
        set_uniform_bits(net, 3, 3)
        from repro.core.training import make_sgd

        opt = make_sgd(net, lr=0.01)
        x = Tensor(rng.normal(size=(4, 3, 8, 8)))
        y = rng.integers(0, 10, size=4)
        loss = F.cross_entropy(net(x), y)
        loss.backward()
        opt.step()
        loss2 = F.cross_entropy(net(x), y)
        assert np.isfinite(loss2.item())

    def test_quantized_weight_accessor(self, rng):
        net = quantize_model(small_net(), "dorefa")
        _, conv = quantized_layers(net)[0]
        conv.w_bits = 2
        wq = conv.quantized_weight().data
        assert len(np.unique(wq)) <= 4


class TestQuantizerParameters:
    def test_pact_alphas_collected(self):
        net = quantize_model(small_net(), "pact")
        params = collect_quantizer_parameters(net)
        assert len(params) == 4  # one alpha per layer

    def test_quantizer_params_in_state_dict(self):
        net = quantize_model(small_net(), "pact")
        state = net.state_dict()
        assert any("aq_param" in k for k in state)

    def test_regularization_sums_all_layers(self):
        net = quantize_model(small_net(), "pact")
        reg = collect_regularization(net)
        expected = sum(
            float(l.act_quantizer.alpha.data) ** 2 * l.act_quantizer.reg_lambda
            for _, l in quantized_layers(net)
        )
        assert reg.item() == pytest.approx(expected)

    def test_dorefa_has_no_regularization(self):
        net = quantize_model(small_net(), "dorefa")
        assert collect_regularization(net) is None


class TestPolicyRegistry:
    def test_available_contains_paper_policies(self):
        names = available_policies()
        for expected in ("dorefa", "wrpn", "pact", "pact_sawb", "lsq", "lqnets"):
            assert expected in names

    def test_get_policy(self):
        assert get_policy("pact").name == "pact"

    def test_register_custom_policy(self):
        from repro.quantization.base import IdentityQuantizer

        policy = QuantPolicy(
            "custom_test",
            IdentityQuantizer,
            lambda signed: IdentityQuantizer(),
        )
        register_policy(policy)
        assert get_policy("custom_test") is policy
        net = quantize_model(small_net(), "custom_test")
        assert len(quantized_layers(net)) == 4
