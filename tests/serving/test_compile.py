"""Compilation pipeline: BN folding, quantizer freezing, error paths.

The bit-exactness of the compiled engine is covered by the hypothesis
suite in ``test_serving_equivalence.py``; this module tests the
compile-time machinery in isolation — folding math, dynamic-quantizer
freezing, the one-layer integer lowering against the fake-quant layer,
and every rejection path the compiler promises to take (residual and
branching graphs, unquantized models, missing bit widths, non-uniform
codebooks), each naming its layer.
"""

import copy

import numpy as np
import pytest

from repro import models, nn
from repro.nn import Tensor, no_grad
from repro.nn import functional as F
from repro.quantization import (
    QuantConv2d,
    quantize_model,
    quantized_layers,
    set_uniform_bits,
)
from repro.serving import (
    CompileError,
    compile_model,
    fake_quant_activations,
    fold_batchnorm,
    freeze_dynamic_quantizers,
)
from repro.serving.compile import FrozenActQuantizer


def _warm_bn(net, rng, shape, steps=3):
    net.train()
    with no_grad():
        for _ in range(steps):
            net(Tensor(rng.normal(size=shape)))
    net.eval()
    return net


def _quantized_convnet(rng, policy="pact", w_bits=4, a_bits=4):
    net = models.SmallConvNet(width=8, rng=rng)
    _warm_bn(net, rng, (8, 3, 12, 12))
    quantize_model(net, policy)
    set_uniform_bits(net, w_bits, a_bits)
    calibration = rng.normal(size=(8, 3, 12, 12))
    with no_grad():
        net(Tensor(calibration))
    return net, calibration


class AvgPoolNet(nn.Module):
    """Conv chain exercising the avg-pool post-op (SmallConvNet uses
    GAP and LeNet max-pool, so this path needs its own model).

    The BatchNorms matter beyond fold coverage: folding multiplies the
    weight lattice by data-dependent scales, which keeps the layer
    grids incommensurate so pool averages never land *exactly* on a
    code boundary — the one place float and integer rounding are
    allowed to disagree (see docs/serving.md).
    """

    def __init__(self, rng):
        super().__init__()
        self.conv1 = nn.Conv2d(3, 6, 3, padding=1, bias=False, rng=rng)
        self.bn1 = nn.BatchNorm2d(6)
        self.conv2 = nn.Conv2d(6, 8, 3, padding=1, bias=False, rng=rng)
        self.bn2 = nn.BatchNorm2d(8)
        self.fc = nn.Linear(8 * 3 * 3, 10, rng=rng)

    def forward(self, x):
        out = F.avg_pool2d(self.bn1(self.conv1(x)).relu(), 2)
        out = F.avg_pool2d(self.bn2(self.conv2(out)).relu(), 2)
        return self.fc(out.flatten(start_dim=1))


class PaddedPoolNet(nn.Module):
    """Conv chain whose pools are padded, channels-last in the engine.

    Inputs are 12x10 and every pool's stride and padding differ
    between height and width, so no axis can be swapped unseen.  The
    max pool (3, stride (2, 1), pad (1, 0)) runs before the relu; the
    average pool (3, stride (1, 2), pad (0, 1)) counts only real cells,
    so its first column of windows divides by 6 and the rest by 9, and
    that per-position divisor rides through the flatten into the
    requantization.  BatchNorms as in :class:`AvgPoolNet`.
    """

    def __init__(self, rng):
        super().__init__()
        self.conv1 = nn.Conv2d(3, 6, 3, padding=1, bias=False, rng=rng)
        self.bn1 = nn.BatchNorm2d(6)
        self.conv2 = nn.Conv2d(6, 8, 3, padding=1, bias=False, rng=rng)
        self.bn2 = nn.BatchNorm2d(8)
        self.fc = nn.Linear(8 * 4 * 4, 10, rng=rng)

    def forward(self, x):
        out = self.bn1(self.conv1(x))
        out = F.max_pool2d(out, 3, (2, 1), (1, 0)).relu()
        out = self.bn2(self.conv2(out)).relu()
        out = F.avg_pool2d(out, 3, (1, 2), (0, 1))
        return self.fc(out.flatten(start_dim=1))


class ResidualNet(nn.Module):
    """Has a skip connection — the chain tracer must reject it."""

    def __init__(self, rng):
        super().__init__()
        self.conv1 = nn.Conv2d(3, 3, 3, padding=1, rng=rng)
        self.conv2 = nn.Conv2d(3, 3, 3, padding=1, rng=rng)
        self.fc = nn.Linear(3 * 12 * 12, 10, rng=rng)

    def forward(self, x):
        out = self.conv1(x).relu()
        out = self.conv2(out) + out  # branch
        return self.fc(out.flatten(start_dim=1))


class TestFoldBatchnorm:
    def test_float_model_equivalence(self, rng):
        net = models.SmallConvNet(width=8, rng=rng)
        _warm_bn(net, rng, (8, 3, 12, 12))
        x = Tensor(rng.normal(size=(4, 3, 12, 12)))
        with no_grad():
            before = net(x).data.copy()
        folded = fold_batchnorm(net, rng.normal(size=(2, 3, 12, 12)))
        with no_grad():
            after = folded(x).data
        np.testing.assert_allclose(after, before, rtol=1e-9, atol=1e-9)

    def test_original_model_untouched(self, rng):
        net = models.SmallConvNet(width=8, rng=rng)
        _warm_bn(net, rng, (8, 3, 12, 12))
        w_before = net.conv1.weight.data.copy()
        fold_batchnorm(net, rng.normal(size=(2, 3, 12, 12)))
        np.testing.assert_array_equal(net.conv1.weight.data, w_before)
        assert any(
            isinstance(m, nn.BatchNorm2d) for _, m in net.named_modules()
        )

    def test_folding_creates_bias(self, rng):
        net, calibration = _quantized_convnet(rng)
        assert all(
            layer.bias is None
            for _, layer in quantized_layers(net)
            if isinstance(layer, QuantConv2d)
        )
        folded = fold_batchnorm(net, calibration)
        convs = [
            layer for _, layer in quantized_layers(folded)
            if isinstance(layer, QuantConv2d)
        ]
        assert len(convs) == 3
        for layer in convs:
            assert layer.bias is not None

    def test_folded_model_has_no_batchnorm(self, rng):
        net, calibration = _quantized_convnet(rng)
        folded = fold_batchnorm(net, calibration)
        assert not any(
            isinstance(m, nn.BatchNorm2d) for _, m in folded.named_modules()
        )


class TestFreezeDynamicQuantizers:
    def test_dorefa_signed_act_is_frozen(self, rng):
        net, calibration = _quantized_convnet(rng, policy="dorefa")
        frozen = freeze_dynamic_quantizers(net, calibration)
        assert frozen, "dorefa's per-batch-max input quantizer must freeze"
        layers = dict(quantized_layers(net))
        assert any(
            isinstance(layers[name].act_quantizer, FrozenActQuantizer)
            for name in frozen
        )

    def test_static_policies_freeze_nothing(self, rng):
        net, calibration = _quantized_convnet(rng, policy="pact")
        assert freeze_dynamic_quantizers(net, calibration) == []

    def test_frozen_quantizer_is_elementwise(self, rng):
        net, calibration = _quantized_convnet(rng, policy="dorefa")
        frozen = freeze_dynamic_quantizers(net, calibration)
        layers = dict(quantized_layers(net))
        q = layers[frozen[0]].act_quantizer
        bits = layers[frozen[0]].a_bits
        x = rng.normal(size=64)
        with no_grad():
            full = q.quantize(Tensor(x), bits).data
            half = q.quantize(Tensor(x[:32]), bits).data
        np.testing.assert_array_equal(full[:32], half)


class TestCompileSmoke:
    def test_summary_names_stages(self, rng):
        net, calibration = _quantized_convnet(rng)
        compiled = compile_model(net, calibration)
        summary = compiled.summary()
        assert len(summary["layers"]) == len(quantized_layers(net))
        assert [e["name"] for e in summary["layers"]] == compiled.layer_names
        assert compiled.input_shape == (3, 12, 12)

    @staticmethod
    def _assert_compiles_exactly(net, rng, shape=(3, 12, 12)):
        _warm_bn(net, rng, (8, *shape))
        quantize_model(net, "pact")
        set_uniform_bits(net, 4, 4)
        calibration = rng.normal(size=(8, *shape))
        with no_grad():
            net(Tensor(calibration))
        compiled = compile_model(net, calibration)
        x = rng.normal(size=(5, *shape))
        expected_acts, expected_logits = fake_quant_activations(
            compiled.reference_model, x
        )
        trace, logits = compiled.forward_codes(x)
        np.testing.assert_allclose(logits, expected_logits, atol=1e-8)
        for grid, codes, acts in zip(compiled.grids, trace, expected_acts):
            np.testing.assert_array_equal(codes, grid.codes_from_values(acts))
        np.testing.assert_array_equal(compiled.forward(x), logits)
        return compiled

    def test_avgpool_chain_compiles_exactly(self, rng):
        self._assert_compiles_exactly(AvgPoolNet(rng), rng)

    def test_padded_pool_chain_compiles_exactly(self, rng):
        compiled = self._assert_compiles_exactly(
            PaddedPoolNet(rng), rng, shape=(3, 12, 10)
        )
        kinds = [[op[0] for op in stage.post_ops] for stage in compiled.stages]
        assert kinds == [["maxpool", "relu"], ["relu", "avgpool", "flatten"],
                         []]
        (counts,) = [op[4] for op in compiled.stages[1].post_ops
                     if op[0] == "avgpool"]
        assert counts.shape == (4, 4)
        assert (counts[:, 0] == 6).all() and (counts[:, 1:] == 9).all()

    def test_batch_independence(self, rng):
        net, calibration = _quantized_convnet(rng)
        compiled = compile_model(net, calibration)
        xs = rng.normal(size=(6, 3, 12, 12))
        batched = compiled.forward(xs)
        for i in range(6):
            solo = compiled.forward(xs[i : i + 1])
            np.testing.assert_array_equal(batched[i], solo[0])


LOWERING_CASES = [
    pytest.param("conv", policy, stride, padding,
                 id=f"conv-{policy}-{stride}-{padding}")
    for policy in ("dorefa", "wrpn", "pact", "pact_sawb")
    for stride, padding in ((1, 0), (1, 1), (2, 1))
] + [pytest.param("linear", "dorefa", None, None, id="linear-dorefa")]


class TestIntegerLowering:
    """The compiler is the one integer lowering of a quantized layer.

    A one-layer net compiles to a single egress stage, so its output is
    the layer's int64 accumulator decomposition rescaled once, and must
    match the fake-quant layer.  A first layer's signed input grid has a
    nonzero offset and DoReFa's weight grid has no zero level, so every
    offset-correction term runs, padding-corrected ones included.
    """

    @pytest.mark.parametrize("kind,policy,stride,padding", LOWERING_CASES)
    def test_matches_fake_quant(
        self, rng, kind, policy, stride, padding
    ):
        if kind == "conv":
            layer = nn.Conv2d(3, 4, 3, stride=stride, padding=padding, rng=rng)
            shape = (3, 8, 8)
        else:
            layer = nn.Linear(16, 8, rng=rng)
            shape = (16,)
        layer.bias.data[...] = rng.normal(size=layer.bias.shape)
        net = nn.Sequential(layer)
        quantize_model(net, policy)
        set_uniform_bits(net, 3, 3)
        calibration = rng.normal(size=(4, *shape))
        with no_grad():
            net(Tensor(calibration))
        compiled = compile_model(net, calibration)
        assert compiled.n_layers == 1
        # A first layer, conv or linear, reads zero-centred input on a
        # signed grid, which starts below zero.
        assert compiled.grids[0].offset < 0.0
        if policy == "dorefa":
            qlayer = quantized_layers(compiled.reference_model)[0][1]
            levels = qlayer.weight_quantizer.quantize_array(qlayer.weight.data)
            assert 0.0 not in np.unique(levels)

        x = rng.normal(size=(5, *shape))
        _, expected = fake_quant_activations(compiled.reference_model, x)
        np.testing.assert_allclose(
            compiled.forward(x), expected, rtol=0, atol=1e-9
        )


class TestCompileErrors:
    def test_residual_graph_rejected(self, rng):
        net = ResidualNet(rng)
        quantize_model(net, "pact")
        set_uniform_bits(net, 4, 4)
        calibration = rng.normal(size=(4, 3, 12, 12))
        with no_grad():
            net(Tensor(calibration))
        with pytest.raises(CompileError, match="residual add after layer conv2"):
            compile_model(net, calibration)

    @pytest.mark.parametrize("make,shape", [
        pytest.param(lambda rng: models.resnet20(width_mult=0.25, rng=rng),
                     (3, 8, 8), id="resnet20"),
        pytest.param(lambda rng: models.resnet18(
            num_classes=4, width_mult=0.125, small_input=False, rng=rng),
            (3, 16, 16), id="resnet18"),
    ])
    def test_paper_resnet_rejected_naming_its_block(self, rng, make, shape):
        """The paper's networks (micro scale) fail at their first
        residual join, and the message says which block holds it."""
        net = make(rng)
        quantize_model(net, "pact")
        set_uniform_bits(net, 4, 4)
        calibration = rng.normal(size=(4, *shape))
        with no_grad():
            net(Tensor(calibration))
        with pytest.raises(CompileError, match=r"residual add .*layer1\.0"):
            compile_model(net, calibration)

    def test_unquantized_model_rejected(self, rng):
        net = models.SmallConvNet(width=8, rng=rng)
        _warm_bn(net, rng, (4, 3, 12, 12))
        with pytest.raises(CompileError, match="layer conv1 is not quantized"):
            compile_model(net, rng.normal(size=(4, 3, 12, 12)))

    def test_full_precision_layer_rejected(self, rng):
        net, calibration = _quantized_convnet(rng)
        quantized_layers(net)[0][1].w_bits = None
        with pytest.raises(CompileError, match="layer conv1: weight and"):
            compile_model(net, calibration)

    def test_non_uniform_codebook_rejected(self, rng):
        net, calibration = _quantized_convnet(rng, policy="lqnets")
        with pytest.raises(CompileError, match="layer conv1: .*uniform"):
            compile_model(net, calibration)

    def test_forward_shape_check(self, rng):
        net, calibration = _quantized_convnet(rng)
        compiled = compile_model(net, calibration)
        with pytest.raises(ValueError):
            compiled.forward(rng.normal(size=(2, 3, 5, 5)))


def test_reference_model_is_a_copy(rng):
    net, calibration = _quantized_convnet(rng)
    compiled = compile_model(net, calibration)
    assert compiled.reference_model is not net
    original = copy.deepcopy(net.state_dict())
    for key, value in net.state_dict().items():
        np.testing.assert_array_equal(value, original[key])
