"""Kernel-oracle tests for ``repro.nn.kernels``.

The load-bearing contract: the kernels produce byte-identical arrays
to the test-only oracle (``kernel_oracle.py``), and so do the conv
forward and weight gradient built on them.
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn import Tensor, kernels, no_grad
from repro.nn import functional as F
from repro.telemetry.profiler import KERNEL_MODULE, OpProfiler

from . import kernel_oracle as oracle


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
        channels = iter([1, 2, 3, 5, 8, 16, 32] * 4)
        for stride in STRIDES:
            for padding in PADDINGS:
                shape = (1, next(channels), kernel[0] + 4, kernel[1] + 5)
                x = make_batch(rng, shape, dtype)
                cols, size = kernels.im2col(x, kernel, stride, padding)
                want, want_size = oracle.im2col(x, kernel, stride, padding)
                assert size == want_size
                assert_same_bytes(cols, want)

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    @pytest.mark.parametrize("channels", [1, 3, 16, 32])
    def test_im2col_batch_of_64(self, channels, dtype):
        rng = np.random.default_rng(channels)
        x = make_batch(rng, (64, channels, 8, 8), dtype)
        for kernel, stride, padding in [((3, 3), (1, 1), (1, 1)),
                                        ((3, 3), (2, 2), (1, 1)),
                                        ((1, 1), (2, 2), (0, 0)),
                                        ((2, 3), (2, 1), (0, 1))]:
            cols, size = kernels.im2col(x, kernel, stride, padding)
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
            cols, _ = kernels.im2col(x, kernel, stride, padding)
            assert_same_bytes(cols, oracle.im2col(x, kernel, stride, padding)[0])

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_im2col_into_caller_buffers(self, dtype):
        """``out`` and ``padded`` start full of garbage, as a reused
        workspace does: the result must still be the oracle's bytes,
        padding borders included."""
        rng = np.random.default_rng(4)
        for kernel, stride, padding in [((3, 3), (1, 1), (1, 1)),
                                        ((3, 3), (2, 2), (1, 1)),
                                        ((2, 3), (2, 1), (0, 2)),
                                        ((1, 1), (2, 2), (0, 0))]:
            x = make_batch(rng, (3, 4, 7, 6), dtype)
            want, (oh, ow) = oracle.im2col(x, kernel, stride, padding)
            out = np.full(want.shape, 7, dtype=dtype)
            ph, pw = padding
            padded = np.full((3, 4, 7 + 2 * ph, 6 + 2 * pw), 9, dtype=dtype)
            cols, size = kernels.im2col(
                x, kernel, stride, padding, out=out, padded=padded
            )
            assert cols is out and size == (oh, ow)
            assert_same_bytes(cols, want)
            again, _ = kernels.im2col(x, kernel, stride, padding,
                                      out=np.full_like(out, -3))
            assert_same_bytes(again, want)
        codes = rng.integers(0, 15, size=(2, 3, 5, 5))
        out = np.full((2 * 5 * 5, 27), 11, dtype=np.int64)
        cols, _, _ = kernels.int_im2col(
            codes, (3, 3), (1, 1), (1, 1), out=out,
            padded=np.full((2, 3, 7, 7), 5, dtype=np.int64),
        )
        assert cols is out
        assert_same_bytes(cols, oracle.im2col(codes, (3, 3), (1, 1),
                                              (1, 1))[0])
        # Any other out would be gathered into a copy and returned
        # unfilled, so it is refused.
        wide = np.zeros((2 * 5 * 5, 54), dtype=np.int64)
        for bad in (wide[:, ::2], np.asfortranarray(wide[:, :27]),
                    np.zeros((27, 50), dtype=np.int64)):
            with pytest.raises(ValueError, match="C-contiguous"):
                kernels.int_im2col(codes, (3, 3), (1, 1), (1, 1), out=bad)

    def test_int_gemm_into_caller_buffers(self):
        """Both paths -- float64 BLAS and int64 -- write the allocating
        call's bytes into a garbage-filled ``out``."""
        rng = np.random.default_rng(6)
        cases = [
            (rng.integers(0, 16, size=(300, 27)),
             rng.integers(-8, 8, size=(27, 16))),
            (np.array([[2 ** 53 + 1, 1]]), np.ones((2, 1), dtype=np.int64)),
            (rng.integers(-99, 99, size=(40, 30)),
             np.asfortranarray(rng.integers(-99, 99, size=(30, 11)))),
        ]
        for a, b in cases:
            want = oracle.int_gemm(a, b)
            out = np.full(want.shape, -5, dtype=np.int64)
            work = np.full(a.size + b.size + want.size, np.nan)
            got = kernels.int_gemm(a, b, out=out, work=work)
            assert got is out
            assert_same_bytes(got, want)
            assert_same_bytes(kernels.int_gemm(a, b, out=out), want)

    def test_int_im2col_mask_is_cached_and_read_only(self):
        rng = np.random.default_rng(5)
        first = rng.integers(0, 15, size=(2, 3, 7, 6))
        second = rng.integers(0, 15, size=(4, 5, 7, 6))
        cols, mask, size = kernels.int_im2col(first, (3, 3), (2, 1), (1, 1))
        _, again, _ = kernels.int_im2col(second, (3, 3), (2, 1), (1, 1))
        assert again is mask
        assert not mask.flags.writeable
        ones = np.ones((1, 1, 7, 6), dtype=np.int64)
        assert_same_bytes(mask, oracle.im2col(ones, (3, 3), (2, 1), (1, 1))[0])
        assert_same_bytes(
            cols, oracle.im2col(first, (3, 3), (2, 1), (1, 1))[0]
        )
        with OpProfiler() as profiler:
            kernels.int_im2col(second, (3, 3), (2, 1), (1, 1))
        stats = profiler.kernels
        assert stats[(KERNEL_MODULE, "im2col")].calls == 1

    @pytest.mark.parametrize("bits", [4, 8])
    @pytest.mark.parametrize("m,k,f", [(8192, 27, 16), (2048, 144, 32),
                                       (512, 288, 64)])
    def test_int_gemm_codes_take_the_float_path(self, bits, m, k, f):
        rng = np.random.default_rng(bits * k)
        half = 2 ** (bits - 1)
        a = rng.integers(0, 2 * half, size=(m, k))
        b = rng.integers(-half, half, size=(f, k)).T
        assert kernels._float64_exact(a, b)
        assert_same_bytes(kernels.int_gemm(a, b), oracle.int_gemm(a, b))

    def test_int_gemm_edge_operands(self):
        rng = np.random.default_rng(9)
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
            assert_same_bytes(kernels.int_gemm(a, b), oracle.int_gemm(a, b))

    def test_int_gemm_bound_at_2_53(self):
        # max|a| * max|b| * K = 2^53 - 2^27: float64 is exact.
        below = (np.array([[2 ** 26, -3]]), np.array([[2 ** 26 - 1], [5]]))
        # Exactly 2^53: not provably exact, so int64.
        at = (np.array([[2 ** 26, 2 ** 26]]), np.array([[2 ** 26], [-1]]))
        assert kernels._float64_exact(*below)
        assert not kernels._float64_exact(*at)
        for a, b in (below, at):
            assert_same_bytes(kernels.int_gemm(a, b), oracle.int_gemm(a, b))

    def test_int_gemm_bound_is_taken_in_python_integers(self):
        """In int64, 2^32 * 2^32 * 1 wraps to 0 and would pass the
        bound; the int64 product wraps to 0 too, and must be kept."""
        a = np.array([[2 ** 32]], dtype=np.int64)
        b = np.array([[2 ** 32]], dtype=np.int64)
        assert not kernels._float64_exact(a, b)
        got = kernels.int_gemm(a, b)
        assert_same_bytes(got, oracle.int_gemm(a, b))
        assert got.item() == 0

    def test_float_path_serves_4_bit_codes_and_int64_path_big_codes(
        self, monkeypatch
    ):
        from repro import models
        from repro.quantization import quantize_model, set_uniform_bits
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
        big = np.array([[2 ** 53 + 1, 1]], dtype=np.int64)
        ones = np.ones((2, 1), dtype=np.int64)
        cols, _, _ = kernels.int_im2col(
            big.reshape(1, 2, 1, 1), (1, 1), (1, 1), (0, 0)
        )
        # The conv's column GEMM and the linear GEMM both hold the big
        # code, so both take the int64 path and stay exact.
        assert kernels.int_gemm(cols, ones).item() == 2 ** 53 + 2
        assert kernels.int_gemm(big, ones).item() == 2 ** 53 + 2
        assert seen == [False, False]


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
    """The kernels against a reference computation, byte for byte: the
    oracle's column matrix and int64 GEMM, or plain numpy loops in the
    accumulation order the kernels document.  The reference GEMMs take
    the kernels' operand shapes and layouts, as the float-GEMM rule
    requires.  ``fast`` is the name the kernels were registered under
    before they became one module; the case ids keep it."""

    @pytest.mark.parametrize("cfg", conv_configs())
    def test_conv2d_forward_backward(self, name, cfg):
        rng = np.random.default_rng(cfg["k"] * 100 + cfg["size"])
        n, c, f, k = cfg["n"], cfg["c"], cfg["f"], cfg["k"]
        stride, padding = cfg["stride"], cfg["padding"]
        x0 = rng.normal(size=(n, c, cfg["size"], cfg["size"]))
        w0 = rng.normal(size=(f, c, k, k))
        b0 = rng.normal(size=(f,)) if cfg["bias"] else None

        x = Tensor(x0.copy(), requires_grad=True)
        w = Tensor(w0.copy(), requires_grad=True)
        b = Tensor(b0.copy(), requires_grad=True) if cfg["bias"] else None
        out = F.conv2d(x, w, b, stride=stride, padding=padding)
        upstream = rng.normal(size=out.shape)
        (out * Tensor(upstream)).sum().backward()
        with no_grad():
            inference = F.conv2d(
                Tensor(x0.copy()), Tensor(w0.copy()),
                None if b0 is None else Tensor(b0.copy()),
                stride=stride, padding=padding,
            )
        np.testing.assert_array_equal(inference.data, out.data)

        cols, (oh, ow) = oracle.im2col(
            x0, (k, k), (stride, stride), (padding, padding)
        )
        want = cols @ w0.reshape(f, -1).T
        if b0 is not None:
            want += b0
        want = want.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)
        assert out.shape == want.shape
        assert out.data.tobytes() == want.tobytes()

        g = upstream.transpose(0, 2, 3, 1).reshape(-1, f)
        assert_same_bytes(w.grad, (g.T @ cols).reshape(w0.shape))
        if b0 is not None:
            assert_same_bytes(b.grad, g.sum(axis=0))

    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("pool", ["max", "avg"])
    def test_pooling_forward_backward(self, name, pool, padding):
        rng = np.random.default_rng(7)
        x0 = rng.normal(size=(2, 3, 9, 9))
        k, s, p = 3, 2, padding
        x = Tensor(x0.copy(), requires_grad=True)
        op = F.max_pool2d if pool == "max" else F.avg_pool2d
        out = op(x, k, stride=s, padding=p)
        upstream = rng.normal(size=out.shape)
        (out * Tensor(upstream)).sum().backward()

        fill = -np.inf if pool == "max" else 0.0
        xp = np.pad(x0, ((0, 0), (0, 0), (p, p), (p, p)),
                    constant_values=fill)
        real = np.pad(np.ones((9, 9)), p)
        oh = ow = (9 + 2 * p - k) // s + 1
        want = np.empty((2, 3, oh, ow))
        dxp = np.zeros_like(xp)
        if pool == "max":
            for i in range(oh):
                for j in range(ow):
                    window = xp[:, :, i * s:i * s + k, j * s:j * s + k]
                    want[:, :, i, j] = window.max(axis=(-1, -2))
                    # The first maximum in row-major order takes the
                    # gradient; windows accumulate in output order.
                    arg = window.reshape(2, 3, -1).argmax(axis=-1)
                    for (b, ch), a in np.ndenumerate(arg):
                        dxp[b, ch, i * s + a // k, j * s + a % k] += (
                            upstream[b, ch, i, j]
                        )
        else:
            # The divisor counts only real input cells.  The window sum
            # is numpy's over the window view, whose summation order is
            # numpy's own.
            counts = np.empty((oh, ow))
            for i in range(oh):
                for j in range(ow):
                    counts[i, j] = real[i * s:i * s + k, j * s:j * s + k].sum()
            windows = sliding_window_view(xp, (k, k), axis=(2, 3))
            want = windows[:, :, ::s, ::s].sum(axis=(-1, -2)) / counts
            # Kernel offsets outermost: the order in which avg_pool2d's
            # backward adds overlapping windows.
            g = upstream / counts
            for di in range(k):
                for dj in range(k):
                    for i in range(oh):
                        for j in range(ow):
                            dxp[:, :, i * s + di, j * s + dj] += g[:, :, i, j]
        want_dx = dxp[:, :, p:p + 9, p:p + 9]
        assert out.data.tobytes() == want.tobytes()
        assert x.grad.tobytes() == np.ascontiguousarray(want_dx).tobytes()

    def test_linear_forward_backward(self, name):
        rng = np.random.default_rng(11)
        x0 = rng.normal(size=(5, 12))
        w0 = rng.normal(size=(7, 12))
        b0 = rng.normal(size=(7,))
        x = Tensor(x0.copy(), requires_grad=True)
        w = Tensor(w0.copy(), requires_grad=True)
        b = Tensor(b0.copy(), requires_grad=True)
        out = F.linear(x, w, b)
        upstream = rng.normal(size=out.shape)
        (out * Tensor(upstream)).sum().backward()

        assert out.data.tobytes() == (x0 @ w0.T + b0).tobytes()
        assert x.grad.tobytes() == (upstream @ w0).tobytes()
        assert w.grad.tobytes() == np.ascontiguousarray(
            (x0.T @ upstream).T
        ).tobytes()
        assert b.grad.tobytes() == upstream.sum(axis=0).tobytes()

    def test_im2col_col2im_kernels(self, name):
        rng = np.random.default_rng(13)
        # (x shape, kernel, stride, padding): small odd cases, then the
        # backward geometries of the smoke ResNet-20 at batch 64.
        cases = [((2, 4, 10, 10), k, s, p)
                 for k, s, p in [(3, 1, 1), (3, 2, 0), (2, 1, 1), (5, 2, 2)]]
        for c, hw in [(4, 16), (8, 8), (16, 4)]:
            cases += [((64, c, hw, hw), k, s, p)
                      for k, s, p in [(3, 1, 1), (3, 2, 1), (1, 2, 0)]]
        for shape, k, s, p in cases:
            x = rng.normal(size=shape)
            geometry = ((k, k), (s, s), (p, p))
            cols, size = kernels.im2col(x, *geometry)
            want, want_size = oracle.im2col(x, *geometry)
            assert size == want_size
            assert_same_bytes(cols, want)

            # C-contiguous NCHW: the memory order of the gradient sets
            # the summation order of the reductions downstream, which
            # tobytes() alone cannot see.
            dcols = rng.normal(size=cols.shape)
            assert_same_bytes(
                kernels.col2im(dcols, shape, *geometry, size),
                np.ascontiguousarray(
                    oracle.col2im(dcols, shape, *geometry, size)
                ),
            )

    def test_col2im_in_a_training_step(self, name, monkeypatch):
        """A PACT ResNet-20 training step at the smoke geometry (batch
        64 of 16x16 images, 4/8/16 channels) gives the same parameter
        gradients, byte for byte, with the kernel's col2im and with the
        oracle's, which leaves a strided NCHW view whenever it pads."""
        from repro.experiments import build_task
        from repro.quantization import quantize_model, set_uniform_bits

        net = build_task("resnet20_cifar10", "micro").make_model()
        quantize_model(net, "pact")
        set_uniform_bits(net, 4, 4)
        rng = np.random.default_rng(23)
        x = Tensor(rng.normal(size=(64, 3, 16, 16)))
        targets = rng.integers(0, 10, size=64)

        def gradients():
            for p in net.parameters():
                p.grad = None
            F.cross_entropy(net(x), targets).backward()
            return [(n, p.grad) for n, p in net.named_parameters()]

        ours = gradients()
        monkeypatch.setattr(kernels, "col2im", oracle.col2im)
        theirs = gradients()
        assert [n for n, _ in ours] == [n for n, _ in theirs]
        for (layer, got), (_, want) in zip(ours, theirs):
            assert got.strides == want.strides, layer
            assert got.tobytes() == want.tobytes(), layer

    def test_integer_kernels_exact(self, name):
        rng = np.random.default_rng(17)
        a = rng.integers(-500, 500, size=(37, 20)).astype(np.int64)
        b = rng.integers(-500, 500, size=(20, 9)).astype(np.int64)
        assert_same_bytes(kernels.int_gemm(a, b), oracle.int_gemm(a, b))
        # A transposed (non-contiguous) operand.
        assert_same_bytes(
            kernels.int_gemm(a, b.T.copy().T), oracle.int_gemm(a, b)
        )

        codes = rng.integers(0, 255, size=(2, 3, 8, 8)).astype(np.int64)
        for padding in (0, 1):
            geometry = ((3, 3), (1, 1), (padding, padding))
            cols, mask, size = kernels.int_im2col(codes, *geometry)
            want, want_size = oracle.im2col(codes, *geometry)
            want_mask, _ = oracle.im2col(
                np.ones((1, 1, 8, 8), dtype=np.int64), *geometry
            )
            assert size == want_size
            assert_same_bytes(cols, want)
            assert_same_bytes(mask, want_mask)

    def test_integer_conv2d_identical_across_backends(
        self, name, monkeypatch
    ):
        """A compiled integer conv model serves the same bytes whether
        its GEMMs run on float64 BLAS (the codes keep every sum below
        2^53) or on the int64 matmul.  The id predates the compiler
        becoming the only integer lowering; it is kept so the check
        keeps its history."""
        from repro import models
        from repro.quantization import quantize_model, set_uniform_bits
        from repro.serving import compile_model

        rng = np.random.default_rng(19)
        net = models.SmallConvNet(width=4, rng=rng)
        quantize_model(net, "dorefa")
        set_uniform_bits(net, 4, 4)
        calibration = rng.normal(size=(4, 3, 9, 9))
        with no_grad():
            net(Tensor(calibration))
        compiled = compile_model(net, calibration)
        x = rng.normal(size=(3, 3, 9, 9))
        on_blas = compiled.forward(x)
        monkeypatch.setattr(kernels, "_float64_exact", lambda a, b: False)
        on_int64 = compiled.forward(x)
        assert on_blas.dtype == on_int64.dtype
        assert on_blas.tobytes() == on_int64.tobytes()


class TestKernelProfiling:
    def test_kernel_table_records_backend_and_kernel(self):
        rng = np.random.default_rng(37)
        x = Tensor(rng.normal(size=(1, 2, 8, 8)))
        w = Tensor(rng.normal(size=(3, 2, 3, 3)))
        with OpProfiler() as profiler, no_grad():
            F.conv2d(x, w, padding=1)
        assert set(profiler.kernels) == {
            (KERNEL_MODULE, name)
            for name in ("conv2d_forward", "im2col", "gemm")
        }
        stats = profiler.kernels[(KERNEL_MODULE, "gemm")]
        assert stats.calls == 1 and stats.total_s >= 0.0
        summary = profiler.summary()
        assert any(k["kernel"] == "gemm" for k in summary["kernels"])
        assert "\ngemm " in profiler.format_table()

    def test_no_profiler_no_kernel_overhead_state(self):
        # Without an installed profiler the @kernel wrapper must not
        # record anywhere (regression guard for the lazy-hook lookup).
        profiler = OpProfiler()
        with no_grad():
            F.conv2d(Tensor(np.ones((1, 1, 4, 4))),
                     Tensor(np.ones((1, 1, 3, 3))))
        assert profiler.kernels == {}
