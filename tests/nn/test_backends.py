"""Kernel-backend registry, kernel-oracle, and bit-equivalence tests.

The load-bearing contract: the kernels produce byte-identical arrays
to the test-only oracle (``kernel_oracle.py``), and every registered
backend name produces byte-identical arrays to ``reference`` for every
kernel, forward and backward (the CCQ-trajectory half of the contract
lives in ``tests/core/test_backend_invariance.py``).
"""

import numpy as np
import pytest

from repro.nn import Tensor, backends, no_grad
from repro.nn import functional as F
from repro.nn.backends import (
    FastBackend,
    KernelBackend,
    ReferenceBackend,
    available_backends,
    current,
    get_backend,
    register_backend,
    set_default_backend,
    use_backend,
)
from repro.nn.backends import base as kernels
from repro.telemetry.profiler import OpProfiler

from . import kernel_oracle as oracle


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert available_backends() == ("fast", "reference", "threaded")
        assert current().name == "reference"
        assert isinstance(get_backend("fast"), FastBackend)
        assert isinstance(get_backend("reference"), ReferenceBackend)
        assert isinstance(get_backend("threaded"), FastBackend)

    def test_unknown_backend_names_the_alternatives(self):
        with pytest.raises(KeyError, match="fast.*reference"):
            get_backend("cudnn")
        with pytest.raises(KeyError):
            set_default_backend("cudnn")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend(ReferenceBackend())

    def test_base_name_rejected(self):
        with pytest.raises(ValueError):
            register_backend(KernelBackend())

    def test_overwrite_allows_replacement(self):
        class Custom(KernelBackend):
            name = "custom-test"

        try:
            first = register_backend(Custom())
            replacement = Custom()
            with pytest.raises(ValueError):
                register_backend(replacement)
            assert register_backend(replacement, overwrite=True) is replacement
            assert get_backend("custom-test") is replacement
            assert get_backend("custom-test") is not first
        finally:
            backends._REGISTRY.pop("custom-test", None)

    def test_use_backend_restores_on_exception(self):
        assert current().name == "reference"
        with pytest.raises(RuntimeError):
            with use_backend("fast"):
                assert current().name == "fast"
                raise RuntimeError("boom")
        assert current().name == "reference"

    def test_set_default_returns_previous(self):
        previous = set_default_backend("fast")
        try:
            assert previous == "reference"
            assert current().name == "fast"
        finally:
            set_default_backend(previous)

def assert_same_bytes(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


KERNEL_SHAPES = [(1, 1), (2, 2), (3, 3), (5, 5), (7, 7),
                 (1, 3), (3, 1), (2, 5), (7, 3)]
STRIDES = [(1, 1), (2, 2), (1, 2), (2, 1)]
PADDINGS = [(0, 0), (1, 1), (2, 2), (3, 3), (0, 2), (3, 1)]


def make_batch(rng, shape, dtype):
    if np.dtype(dtype).kind == "i":
        return rng.integers(-(2 ** 40), 2 ** 40, size=shape, dtype=np.int64)
    return rng.normal(size=shape)


class TestKernelOracle:
    """The kernels against the independent oracle, byte for byte."""

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    @pytest.mark.parametrize("kernel", KERNEL_SHAPES)
    def test_im2col_matches_oracle(self, kernel, dtype):
        rng = np.random.default_rng(sum(kernel))
        backend = current()
        channels = iter([1, 2, 3, 5, 8, 16, 32] * 4)
        for stride in STRIDES:
            for padding in PADDINGS:
                shape = (1, next(channels), kernel[0] + 4, kernel[1] + 5)
                x = make_batch(rng, shape, dtype)
                cols, size = backend.im2col(x, kernel, stride, padding)
                want, want_size = oracle.im2col(x, kernel, stride, padding)
                assert size == want_size
                assert_same_bytes(cols, want)

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    @pytest.mark.parametrize("channels", [1, 3, 16, 32])
    def test_im2col_batch_of_64(self, channels, dtype):
        rng = np.random.default_rng(channels)
        x = make_batch(rng, (64, channels, 8, 8), dtype)
        backend = current()
        for kernel, stride, padding in [((3, 3), (1, 1), (1, 1)),
                                        ((3, 3), (2, 2), (1, 1)),
                                        ((1, 1), (2, 2), (0, 0)),
                                        ((2, 3), (2, 1), (0, 1))]:
            cols, size = backend.im2col(x, kernel, stride, padding)
            want, want_size = oracle.im2col(x, kernel, stride, padding)
            assert size == want_size
            assert_same_bytes(cols, want)

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_im2col_of_a_transposed_view(self, dtype):
        rng = np.random.default_rng(3)
        x = make_batch(rng, (9, 7, 4, 2), dtype).transpose(3, 2, 1, 0)
        assert not x.flags.c_contiguous
        for kernel, stride, padding in [((3, 3), (1, 1), (1, 1)),
                                        ((1, 1), (2, 2), (0, 0))]:
            cols, _ = current().im2col(x, kernel, stride, padding)
            assert_same_bytes(cols, oracle.im2col(x, kernel, stride, padding)[0])

    def test_int_im2col_mask_is_cached_and_read_only(self):
        rng = np.random.default_rng(5)
        backend = current()
        first = rng.integers(0, 15, size=(2, 3, 7, 6))
        second = rng.integers(0, 15, size=(4, 5, 7, 6))
        cols, mask, size = backend.int_im2col(first, (3, 3), (2, 1), (1, 1))
        _, again, _ = backend.int_im2col(second, (3, 3), (2, 1), (1, 1))
        assert again is mask
        assert not mask.flags.writeable
        ones = np.ones((1, 1, 7, 6), dtype=np.int64)
        assert_same_bytes(mask, oracle.im2col(ones, (3, 3), (2, 1), (1, 1))[0])
        assert_same_bytes(
            cols, oracle.im2col(first, (3, 3), (2, 1), (1, 1))[0]
        )
        with OpProfiler() as profiler:
            backend.int_im2col(second, (3, 3), (2, 1), (1, 1))
        stats = profiler.kernels
        assert stats[(backend.name, "im2col")].calls == 1

    @pytest.mark.parametrize("bits", [4, 8])
    @pytest.mark.parametrize("m,k,f", [(8192, 27, 16), (2048, 144, 32),
                                       (512, 288, 64)])
    def test_int_gemm_codes_take_the_float_path(self, bits, m, k, f):
        rng = np.random.default_rng(bits * k)
        half = 2 ** (bits - 1)
        a = rng.integers(0, 2 * half, size=(m, k))
        b = rng.integers(-half, half, size=(f, k)).T
        assert kernels._float64_exact(a, b)
        assert_same_bytes(current().int_gemm(a, b), oracle.int_gemm(a, b))

    def test_int_gemm_edge_operands(self):
        rng = np.random.default_rng(9)
        backend = current()
        cases = [
            # negative operands on both sides
            (rng.integers(-500, 500, size=(37, 20)),
             rng.integers(-500, 500, size=(20, 9))),
            # K = 0, and no rows
            (np.zeros((5, 0), dtype=np.int64), np.zeros((0, 3), dtype=np.int64)),
            (np.zeros((0, 7), dtype=np.int64),
             rng.integers(-9, 9, size=(7, 3))),
            # F-contiguous right operand
            (rng.integers(-99, 99, size=(64, 30)),
             np.asfortranarray(rng.integers(-99, 99, size=(30, 11)))),
        ]
        for a, b in cases:
            assert_same_bytes(backend.int_gemm(a, b), oracle.int_gemm(a, b))

    def test_int_gemm_bound_at_2_53(self):
        backend = current()
        # max|a| * max|b| * K = 2^53 - 2^27: float64 is exact.
        below = (np.array([[2 ** 26, -3]]), np.array([[2 ** 26 - 1], [5]]))
        # Exactly 2^53: not provably exact, so int64.
        at = (np.array([[2 ** 26, 2 ** 26]]), np.array([[2 ** 26], [-1]]))
        assert kernels._float64_exact(*below)
        assert not kernels._float64_exact(*at)
        for a, b in (below, at):
            assert_same_bytes(backend.int_gemm(a, b), oracle.int_gemm(a, b))

    def test_int_gemm_bound_is_taken_in_python_integers(self):
        """In int64, 2^32 * 2^32 * 1 wraps to 0 and would pass the
        bound; the int64 product wraps to 0 too, and must be kept."""
        a = np.array([[2 ** 32]], dtype=np.int64)
        b = np.array([[2 ** 32]], dtype=np.int64)
        assert not kernels._float64_exact(a, b)
        got = current().int_gemm(a, b)
        assert_same_bytes(got, oracle.int_gemm(a, b))
        assert got.item() == 0

    def test_float_path_serves_4_bit_codes_and_int64_path_big_codes(
        self, monkeypatch
    ):
        from repro import models
        from repro.quantization import quantize_model, set_uniform_bits
        from repro.quantization.integer_inference import (
            AffineCode, integer_conv2d, integer_linear,
        )
        from repro.serving import compile_model

        seen = []
        exact = kernels._float64_exact

        def spy(a, b):
            verdict = exact(a, b)
            seen.append(verdict)
            return verdict

        monkeypatch.setattr(kernels, "_float64_exact", spy)

        rng = np.random.default_rng(0)
        net = models.SmallConvNet(width=4, rng=rng)
        net.eval()
        quantize_model(net, "pact")
        set_uniform_bits(net, 4, 4)
        calibration = rng.normal(size=(4, 3, 12, 12))
        with no_grad():
            net(Tensor(calibration))
        compiled = compile_model(net, calibration)
        compiled.forward(rng.normal(size=(3, 3, 12, 12)))
        assert seen and all(seen)

        seen.clear()
        big = 2 ** 53 + 1
        x = AffineCode(np.array([big, 1]).reshape(1, 2, 1, 1), 1.0, 0.0)
        w = AffineCode(np.ones((1, 2, 1, 1), dtype=np.int64), 1.0, 0.0)
        integer_conv2d(x, w)
        # The column GEMM holds the big code; the mask GEMM does not.
        assert seen == [False, True]
        seen.clear()
        integer_linear(AffineCode(x.codes.reshape(1, 2), 1.0, 0.0),
                       AffineCode(w.codes.reshape(1, 2), 1.0, 0.0))
        assert seen == [False]


def conv_configs():
    """Randomized conv shapes covering the bit-identity edge cases:
    stride over/under kernel (overlapping windows), odd sizes, 1x1."""
    rng = np.random.default_rng(20240808)
    configs = []
    for _ in range(12):
        k = int(rng.choice([1, 2, 3, 5]))
        configs.append(dict(
            n=int(rng.integers(1, 4)),
            c=int(rng.integers(1, 6)),
            f=int(rng.integers(1, 7)),
            size=int(rng.integers(k, k + 9)),
            k=k,
            stride=int(rng.integers(1, 3)),
            padding=int(rng.integers(0, 3)),
            bias=bool(rng.integers(0, 2)),
        ))
    return configs


@pytest.mark.parametrize("name", ["fast"])
class TestBackendBitEquivalence:
    """Byte-for-byte agreement with `reference` on every kernel."""

    @pytest.mark.parametrize("cfg", conv_configs())
    def test_conv2d_forward_backward(self, name, cfg):
        rng = np.random.default_rng(cfg["k"] * 100 + cfg["size"])
        x0 = rng.normal(size=(cfg["n"], cfg["c"], cfg["size"], cfg["size"]))
        w0 = rng.normal(size=(cfg["f"], cfg["c"], cfg["k"], cfg["k"]))
        b0 = rng.normal(size=(cfg["f"],)) if cfg["bias"] else None

        outs, grads = {}, {}
        for backend in ("reference", name):
            with use_backend(backend):
                x = Tensor(x0.copy(), requires_grad=True)
                w = Tensor(w0.copy(), requires_grad=True)
                b = Tensor(b0.copy(), requires_grad=True) if cfg["bias"] \
                    else None
                out = F.conv2d(x, w, b, stride=cfg["stride"],
                               padding=cfg["padding"])
                (out * out).sum().backward()
                outs[backend] = out.data
                grads[backend] = (
                    x.grad, w.grad, None if b is None else b.grad
                )
                with no_grad():
                    inference = F.conv2d(
                        Tensor(x0.copy()), Tensor(w0.copy()),
                        None if b0 is None else Tensor(b0.copy()),
                        stride=cfg["stride"], padding=cfg["padding"],
                    )
                np.testing.assert_array_equal(inference.data, out.data)

        np.testing.assert_array_equal(outs[name], outs["reference"])
        for got, want in zip(grads[name], grads["reference"]):
            if want is None:
                assert got is None
            else:
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("pool", ["max", "avg"])
    def test_pooling_forward_backward(self, name, pool, padding):
        op = F.max_pool2d if pool == "max" else F.avg_pool2d
        rng = np.random.default_rng(7)
        x0 = rng.normal(size=(2, 3, 9, 9))

        results = {}
        for backend in ("reference", name):
            with use_backend(backend):
                x = Tensor(x0.copy(), requires_grad=True)
                out = op(x, 3, stride=2, padding=padding)
                (out * out).sum().backward()
                results[backend] = (out.data, x.grad)

        np.testing.assert_array_equal(
            results[name][0], results["reference"][0]
        )
        np.testing.assert_array_equal(
            results[name][1], results["reference"][1]
        )

    def test_linear_forward_backward(self, name):
        rng = np.random.default_rng(11)
        x0 = rng.normal(size=(5, 12))
        w0 = rng.normal(size=(7, 12))
        b0 = rng.normal(size=(7,))

        results = {}
        for backend in ("reference", name):
            with use_backend(backend):
                x = Tensor(x0.copy(), requires_grad=True)
                w = Tensor(w0.copy(), requires_grad=True)
                b = Tensor(b0.copy(), requires_grad=True)
                out = F.linear(x, w, b)
                (out * out).sum().backward()
                results[backend] = (out.data, x.grad, w.grad, b.grad)

        for got, want in zip(results[name], results["reference"]):
            np.testing.assert_array_equal(got, want)

    def test_im2col_col2im_kernels(self, name):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(2, 4, 10, 10))
        ref, other = get_backend("reference"), get_backend(name)
        for k, stride, padding in [(3, 1, 1), (3, 2, 0), (2, 1, 1),
                                   (5, 2, 2)]:
            cols_ref, size_ref = ref.im2col(
                x, (k, k), (stride, stride), (padding, padding)
            )
            cols, size = other.im2col(
                x, (k, k), (stride, stride), (padding, padding)
            )
            assert size == size_ref
            np.testing.assert_array_equal(cols, cols_ref)

            dcols = rng.normal(size=cols_ref.shape)
            np.testing.assert_array_equal(
                other.col2im(dcols, x.shape, (k, k), (stride, stride),
                             (padding, padding), size),
                ref.col2im(dcols, x.shape, (k, k), (stride, stride),
                           (padding, padding), size),
            )

    def test_integer_kernels_exact(self, name):
        rng = np.random.default_rng(17)
        ref, other = get_backend("reference"), get_backend(name)

        a = rng.integers(-500, 500, size=(37, 20)).astype(np.int64)
        b = rng.integers(-500, 500, size=(20, 9)).astype(np.int64)
        np.testing.assert_array_equal(
            other.int_gemm(a, b), ref.int_gemm(a, b)
        )
        # Transposed (non-contiguous) operand, as integer_linear uses.
        np.testing.assert_array_equal(
            other.int_gemm(a, b.T.copy().T),
            ref.int_gemm(a, b),
        )

        codes = rng.integers(0, 255, size=(2, 3, 8, 8)).astype(np.int64)
        for padding in (0, 1):
            cols_ref, mask_ref, size_ref = ref.int_im2col(
                codes, (3, 3), (1, 1), (padding, padding)
            )
            cols, mask, size = other.int_im2col(
                codes, (3, 3), (1, 1), (padding, padding)
            )
            assert size == size_ref
            assert cols.dtype == np.int64 and mask.dtype == np.int64
            np.testing.assert_array_equal(cols, cols_ref)
            np.testing.assert_array_equal(mask, mask_ref)

    def test_integer_conv2d_identical_across_backends(self, name):
        from repro.quantization.integer_inference import (
            AffineCode, integer_conv2d,
        )

        rng = np.random.default_rng(19)
        x = AffineCode(
            codes=rng.integers(0, 15, size=(2, 3, 9, 9)).astype(np.int64),
            scale=0.125, offset=-0.875,
        )
        w = AffineCode(
            codes=rng.integers(0, 7, size=(4, 3, 3, 3)).astype(np.int64),
            scale=0.25, offset=-0.75,
        )
        bias = rng.normal(size=(4,))
        with use_backend("reference"):
            want = integer_conv2d(x, w, bias, stride=2, padding=1)
        with use_backend(name):
            got = integer_conv2d(x, w, bias, stride=2, padding=1)
        np.testing.assert_array_equal(got, want)


class TestFusedQuantConv:
    def make_quantizer(self, bits=4):
        from repro.quantization.dorefa import DoReFaWeightQuantizer

        quantizer = DoReFaWeightQuantizer()
        quantizer.set_bits(bits)
        return quantizer

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_fused_matches_unfused_bitwise(self, backend):
        rng = np.random.default_rng(23)
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)) * 0.2)
        b = Tensor(rng.normal(size=(4,)) * 0.1)
        quantizer = self.make_quantizer()

        with use_backend(backend), no_grad():
            unfused = F.conv2d(x, quantizer(w), b, stride=1, padding=1)
            fused = F.fused_quant_conv2d(
                x, w, b, quantizer, stride=1, padding=1
            )
        np.testing.assert_array_equal(fused.data, unfused.data)

    def test_fused_is_one_dispatch(self):
        from repro.nn.autograd import inference_dispatch_count

        rng = np.random.default_rng(29)
        x = Tensor(rng.normal(size=(1, 2, 6, 6)))
        w = Tensor(rng.normal(size=(3, 2, 3, 3)))
        quantizer = self.make_quantizer()
        with no_grad():
            before = inference_dispatch_count()
            F.fused_quant_conv2d(x, w, None, quantizer)
            fused_cost = inference_dispatch_count() - before
            before = inference_dispatch_count()
            F.conv2d(x, quantizer(w))
            unfused_cost = inference_dispatch_count() - before
        # The quantizer's inner Tensor math dispatches inside the fused
        # kernel too, so fusion trades the separate conv dispatch for
        # the one fused dispatch: never more than the unfused chain.
        assert fused_cost == unfused_cost

    def test_fused_rejects_grad_mode(self):
        x = Tensor(np.zeros((1, 2, 6, 6)))
        w = Tensor(np.zeros((3, 2, 3, 3)), requires_grad=True)
        with pytest.raises(RuntimeError, match="inference-only"):
            F.fused_quant_conv2d(x, w, None, self.make_quantizer())

    def test_quant_conv_module_uses_fused_path_uncached(self):
        """QuantConv2d inference without the frozen-weight cache must
        route through the fused op — and produce the same bytes as the
        cached/unfused route."""
        from repro.nn.modules import Conv2d
        from repro.quantization import quantize_model
        from repro.nn import Sequential

        rng = np.random.default_rng(31)
        net = Sequential(Conv2d(3, 4, 3, padding=1, rng=rng))
        quantize_model(net, "pact")
        qconv = net[0]
        qconv.w_bits = 4
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))

        with OpProfiler() as profiler, no_grad():
            fused_out = net(x)
        assert any(
            op.startswith("fusedquantconv2d") for op in profiler.ops
        ), sorted(profiler.ops)

        qconv._wq_cache_enabled = True
        with OpProfiler() as profiler, no_grad():
            cached_out = net(x)
        assert not any(
            op.startswith("fusedquantconv2d") for op in profiler.ops
        )
        np.testing.assert_array_equal(fused_out.data, cached_out.data)


class TestKernelProfiling:
    def test_kernel_table_records_backend_and_kernel(self):
        rng = np.random.default_rng(37)
        x = Tensor(rng.normal(size=(1, 2, 8, 8)))
        w = Tensor(rng.normal(size=(3, 2, 3, 3)))
        with OpProfiler() as profiler, use_backend("fast"), no_grad():
            F.conv2d(x, w, padding=1)
        keys = set(profiler.kernels)
        assert ("fast", "conv2d_forward") in keys
        assert ("fast", "im2col") in keys
        assert ("fast", "gemm") in keys
        stats = profiler.kernels[("fast", "gemm")]
        assert stats.calls == 1 and stats.total_s >= 0.0
        summary = profiler.summary()
        assert any(
            k["backend"] == "fast" and k["kernel"] == "gemm"
            for k in summary["kernels"]
        )
        assert "fast.gemm" in profiler.format_table()

    def test_no_profiler_no_kernel_overhead_state(self):
        # Without an installed profiler the @kernel wrapper must not
        # record anywhere (regression guard for the lazy-hook lookup).
        profiler = OpProfiler()
        with no_grad():
            F.conv2d(Tensor(np.ones((1, 1, 4, 4))),
                     Tensor(np.ones((1, 1, 3, 3))))
        assert profiler.kernels == {}
