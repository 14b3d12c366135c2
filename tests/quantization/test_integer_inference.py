"""Integer-arithmetic execution must match the fake-quant float path."""

import numpy as np
import pytest

from repro import models, nn
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.quantization import (
    fake_quantize_symmetric,
    fake_quantize_unsigned,
    get_policy,
    quantize_model,
    quantized_layers,
    set_uniform_bits,
)
from repro.quantization.integer_inference import (
    AffineCode,
    extract_affine_code,
    integer_conv2d,
    integer_linear,
)


class TestExtraction:
    def test_symmetric_grid(self, rng):
        q = fake_quantize_symmetric(Tensor(rng.normal(size=(500,))), 3, 1.0)
        code = extract_affine_code(q.data)
        np.testing.assert_allclose(code.dequantize(), q.data, atol=1e-12)
        assert code.scale == pytest.approx(1 / 3)

    def test_unsigned_grid(self, rng):
        q = fake_quantize_unsigned(
            Tensor(np.abs(rng.normal(size=(500,)))), 4, 2.0
        )
        code = extract_affine_code(q.data)
        np.testing.assert_allclose(code.dequantize(), q.data, atol=1e-12)
        assert code.offset == pytest.approx(q.data.min())

    def test_dorefa_zero_free_grid(self, rng):
        # DoReFa's 2^k-level weight grid has no zero level; the offset
        # form must still decompose it exactly.
        q = get_policy("dorefa").make_weight_quantizer()
        q.set_bits(2)
        out = q(Tensor(rng.normal(size=(500,)))).data
        code = extract_affine_code(out)
        np.testing.assert_allclose(code.dequantize(), out, atol=1e-12)
        assert 0.0 not in np.unique(out)

    def test_constant_tensor(self):
        code = extract_affine_code(np.full((4, 4), 2.5))
        np.testing.assert_allclose(code.dequantize(), 2.5)

    def test_nonuniform_grid_rejected(self):
        values = np.array([0.0, 1.0, 2.0, 4.5])  # uneven spacing
        with pytest.raises(ValueError, match="uniform grid"):
            extract_affine_code(np.repeat(values, 10))

    def test_codes_are_nonnegative_ints(self, rng):
        q = fake_quantize_symmetric(Tensor(rng.normal(size=(200,))), 4, 1.5)
        code = extract_affine_code(q.data)
        assert code.codes.dtype == np.int64
        assert code.codes.min() == 0


class TestIntegerLinear:
    def test_matches_float(self, rng):
        xq = fake_quantize_unsigned(
            Tensor(np.abs(rng.normal(size=(4, 16)))), 4, 2.0
        ).data
        wq = fake_quantize_symmetric(
            Tensor(rng.normal(size=(8, 16))), 3, 1.0
        ).data
        bias = rng.normal(size=(8,))
        expected = xq @ wq.T + bias
        out = integer_linear(
            extract_affine_code(xq), extract_affine_code(wq), bias
        )
        np.testing.assert_allclose(out, expected, atol=1e-9)


class TestIntegerConv:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_matches_float_conv(self, rng, stride, padding):
        xq = fake_quantize_unsigned(
            Tensor(np.abs(rng.normal(size=(2, 3, 8, 8)))), 4, 2.0
        ).data
        wq = fake_quantize_symmetric(
            Tensor(rng.normal(size=(4, 3, 3, 3))), 3, 1.0
        ).data
        bias = rng.normal(size=(4,))
        expected = F.conv2d(
            Tensor(xq), Tensor(wq), Tensor(bias),
            stride=stride, padding=padding,
        ).data
        out = integer_conv2d(
            extract_affine_code(xq), extract_affine_code(wq), bias,
            stride=stride, padding=padding,
        )
        np.testing.assert_allclose(out, expected, atol=1e-9)

    def test_offset_grids_with_padding(self, rng):
        # Both tensors on zero-free grids + padding: the correction-term
        # path must exactly reproduce the float conv.
        q = get_policy("dorefa").make_weight_quantizer()
        q.set_bits(2)
        wq = q(Tensor(rng.normal(size=(2, 2, 3, 3)))).data
        xq = q(Tensor(rng.normal(size=(1, 2, 6, 6)))).data
        expected = F.conv2d(Tensor(xq), Tensor(wq), padding=1).data
        out = integer_conv2d(
            extract_affine_code(xq), extract_affine_code(wq), padding=1
        )
        np.testing.assert_allclose(out, expected, atol=1e-9)


class TestIntNativeLowering:
    """The integer path must be integer end to end — no float64
    transport of codes (the bug this lowering replaced: codes took an
    im2col ride as float64 and came back through ``np.round``)."""

    def test_integer_conv_never_rounds(self, rng, monkeypatch):
        x = extract_affine_code(
            fake_quantize_unsigned(
                Tensor(np.abs(rng.normal(size=(2, 3, 8, 8)))), 4, 2.0
            ).data
        )
        w = extract_affine_code(
            fake_quantize_symmetric(
                Tensor(rng.normal(size=(4, 3, 3, 3))), 3, 1.0
            ).data
        )
        bias = rng.normal(size=(4,))

        real_round = np.round

        def spy_round(a, *args, **kwargs):
            # np.pad legitimately rounds its tiny integer pad-width
            # array internally; what must never happen again is codes
            # coming back from a float im2col through np.round.
            arr = np.asarray(a)
            if arr.dtype.kind == "f" and arr.size > 4:
                raise AssertionError(
                    "np.round of a float array inside the integer path "
                    "means codes took a float round-trip"
                )
            return real_round(a, *args, **kwargs)

        monkeypatch.setattr(np, "round", spy_round)
        integer_conv2d(x, w, bias, stride=2, padding=1)
        integer_linear(
            AffineCode(x.codes.reshape(2, -1)[:, :27], x.scale, x.offset),
            AffineCode(w.codes.reshape(4, -1), w.scale, w.offset),
        )

    def test_lowering_receives_integer_arrays_only(self, rng, monkeypatch):
        from repro.nn import kernels

        x = extract_affine_code(
            fake_quantize_unsigned(
                Tensor(np.abs(rng.normal(size=(1, 2, 6, 6)))), 3, 1.0
            ).data
        )
        w = extract_affine_code(
            fake_quantize_symmetric(
                Tensor(rng.normal(size=(3, 2, 3, 3))), 3, 1.0
            ).data
        )
        seen = []
        real_im2col = kernels.im2col

        def spy(array, *args, **kwargs):
            seen.append(np.asarray(array).dtype)
            return real_im2col(array, *args, **kwargs)

        monkeypatch.setattr(kernels, "im2col", spy)
        integer_conv2d(x, w, padding=1)
        assert seen, "integer conv never reached the im2col lowering"
        assert all(dtype == np.int64 for dtype in seen)

    def test_codes_beyond_2_53_stay_exact(self):
        """Codes above 2^53 are not float64-representable; the old
        float64 im2col silently corrupted them before accumulation.
        With integer-native lowering the accumulator is exact and only
        the final (exactly representable here) sum is converted."""
        big = 2 ** 53 + 1  # rounds to 2^53 as float64
        x = AffineCode(
            codes=np.array([big, 1], dtype=np.int64).reshape(1, 2, 1, 1),
            scale=1.0, offset=0.0,
        )
        w = AffineCode(
            codes=np.ones((1, 2, 1, 1), dtype=np.int64),
            scale=1.0, offset=0.0,
        )
        out = integer_conv2d(x, w)
        # Exact: (2^53 + 1) + 1 = 2^53 + 2, representable as float64.
        # The float round-trip produced 2^53 (big snapped to 2^53 on
        # the way into the im2col matrix).
        assert out.item() == float(2 ** 53 + 2)

        lin = integer_linear(
            AffineCode(x.codes.reshape(1, 2), 1.0, 0.0),
            AffineCode(w.codes.reshape(1, 2), 1.0, 0.0),
        )
        assert lin.item() == float(2 ** 53 + 2)

    def test_column_matrix_is_integer(self, rng):
        from repro.nn.kernels import int_im2col

        codes = rng.integers(0, 255, size=(1, 2, 6, 6)).astype(np.int64)
        cols, mask, _ = int_im2col(codes, (3, 3), (1, 1), (1, 1))
        assert cols.dtype == np.int64
        assert mask.dtype == np.int64
        assert set(np.unique(mask)) <= {0, 1}


class TestEndToEndLayer:
    @pytest.mark.parametrize("policy", ["dorefa", "wrpn", "pact", "pact_sawb"])
    def test_quant_conv_layer_matches_integer_path(self, policy, rng):
        net = models.SmallConvNet(width=4, rng=np.random.default_rng(0))
        quantize_model(net, policy)
        set_uniform_bits(net, 3, 3)
        _, conv = quantized_layers(net)[1]  # an inner layer (unsigned acts)

        x = Tensor(np.abs(rng.normal(size=(2, conv.in_channels, 6, 6))))
        xq = conv.act_quantizer(x).data
        wq = conv.weight_quantizer(conv.weight).data
        expected = F.conv2d(
            Tensor(xq), Tensor(wq), stride=conv.stride, padding=conv.padding
        ).data
        out = integer_conv2d(
            extract_affine_code(xq), extract_affine_code(wq),
            stride=conv.stride, padding=conv.padding,
        )
        np.testing.assert_allclose(out, expected, atol=1e-8)
