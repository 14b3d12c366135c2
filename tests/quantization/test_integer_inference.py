"""Affine code extraction, and the integer-native lowering it feeds.

The lowering itself is the serving compiler's; its one-layer match
against the fake-quant layer lives in ``tests/serving/test_compile.py``.
"""

import numpy as np
import pytest

from repro import models, nn
from repro.nn.tensor import Tensor
from repro.quantization import (
    fake_quantize_symmetric,
    fake_quantize_unsigned,
    get_policy,
    quantize_model,
    set_uniform_bits,
)
from repro.quantization.integer_inference import extract_affine_code
from repro.serving import compile_model
from repro.serving.compile import _Stage


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


def _compiled_convnet(rng):
    """A compiled SmallConvNet: interior conv stages (``run``) with
    padding and stride 2, and a linear egress stage (``run_final``)."""
    net = models.SmallConvNet(width=4, rng=np.random.default_rng(0))
    quantize_model(net, "pact")
    set_uniform_bits(net, 4, 4)
    calibration = rng.normal(size=(4, 3, 8, 8))
    with nn.no_grad():
        net(Tensor(calibration))
    return compile_model(net, calibration)


class TestIntNativeLowering:
    """The integer path must be integer end to end — no float64
    transport of codes (the bug the integer-native lowering replaced:
    codes took an im2col ride as float64 and came back through
    ``np.round``).  The compiled stages are that path."""

    def test_integer_conv_never_rounds(self, rng, monkeypatch):
        compiled = _compiled_convnet(rng)
        x = rng.normal(size=(2, 3, 8, 8))
        real_round = np.round
        in_stage = []

        def spy_round(a, *args, **kwargs):
            # np.pad legitimately rounds its tiny integer pad-width
            # array internally; what must never happen again is codes
            # coming back from a float im2col through np.round.
            arr = np.asarray(a)
            if in_stage and arr.dtype.kind == "f" and arr.size > 4:
                raise AssertionError(
                    "np.round of a float array inside the integer path "
                    "means codes took a float round-trip"
                )
            return real_round(a, *args, **kwargs)

        ran = []
        for method in ("run", "run_final"):
            real = getattr(_Stage, method)

            def stage(self, codes, _real=real, _method=method):
                ran.append(_method)
                in_stage.append(True)
                try:
                    return _real(self, codes)
                finally:
                    in_stage.pop()

            monkeypatch.setattr(_Stage, method, stage)
        monkeypatch.setattr(np, "round", spy_round)
        compiled.forward(x)
        assert ran == ["run"] * (compiled.n_layers - 1) + ["run_final"]

    def test_lowering_receives_integer_arrays_only(self, rng, monkeypatch):
        from repro.nn import kernels

        compiled = _compiled_convnet(rng)
        seen = []
        real_im2col = kernels.im2col

        def spy(array, *args, **kwargs):
            seen.append(np.asarray(array).dtype)
            return real_im2col(array, *args, **kwargs)

        monkeypatch.setattr(kernels, "im2col", spy)
        compiled.forward(rng.normal(size=(2, 3, 8, 8)))
        assert seen, "the compiled convs never reached the im2col lowering"
        assert all(dtype == np.int64 for dtype in seen)

    def test_codes_beyond_2_53_stay_exact(self):
        """Codes above 2^53 are not float64-representable; a float64
        im2col silently corrupted them before accumulation.  The
        integer kernels keep the accumulator exact, in the conv (column
        matrix) and the linear (1x2 row) shape alike."""
        from repro.nn import kernels

        big = 2 ** 53 + 1  # rounds to 2^53 as float64
        codes = np.array([big, 1], dtype=np.int64)
        ones = np.ones((2, 1), dtype=np.int64)
        cols, _, _ = kernels.int_im2col(
            codes.reshape(1, 2, 1, 1), (1, 1), (1, 1), (0, 0)
        )
        # Exact: (2^53 + 1) + 1 = 2^53 + 2.  A float round-trip gives
        # 2^53 (big snapped to 2^53 on the way into the matrix).
        assert kernels.int_gemm(cols, ones).item() == 2 ** 53 + 2
        assert kernels.int_gemm(codes.reshape(1, 2), ones).item() == 2 ** 53 + 2

    def test_column_matrix_is_integer(self, rng):
        from repro.nn.kernels import int_im2col

        codes = rng.integers(0, 255, size=(1, 2, 6, 6)).astype(np.int64)
        cols, mask, _ = int_im2col(codes, (3, 3), (1, 1), (1, 1))
        assert cols.dtype == np.int64
        assert mask.dtype == np.int64
        assert set(np.unique(mask)) <= {0, 1}
