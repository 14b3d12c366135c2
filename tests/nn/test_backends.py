"""Kernel-backend registry, scratch arena, and bit-equivalence tests.

The load-bearing contract: every registered backend produces
byte-identical arrays to ``reference`` for every kernel, forward and
backward (the CCQ-trajectory half of the contract lives in
``tests/core/test_backend_invariance.py``).
"""

import os

import numpy as np
import pytest

from repro.nn import Tensor, backends, no_grad
from repro.nn import functional as F
from repro.nn.backends import (
    FastBackend,
    KernelBackend,
    ReferenceBackend,
    ScratchArena,
    ThreadedBackend,
    available_backends,
    current,
    get_backend,
    register_backend,
    set_default_backend,
    use_backend,
)
from repro.telemetry.profiler import OpProfiler


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

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="no CPU affinity API"
    )
    def test_threaded_pool_follows_cpu_affinity(self):
        """A process pinned to one core gets one panel thread, however
        many cores the host has."""
        before = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(before)})
        try:
            assert ThreadedBackend().num_threads == 1
        finally:
            os.sched_setaffinity(0, before)
        assert ThreadedBackend().num_threads == min(4, len(before))

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


class TestScratchArena:
    def test_same_key_reuses_buffer(self):
        arena = ScratchArena(capacity=4)
        a = arena.get((3, 5), np.float64)
        b = arena.get((3, 5), np.float64)
        assert a is b
        assert arena.allocations == 1
        assert arena.hits == 1

    def test_tag_separates_equal_shapes(self):
        arena = ScratchArena(capacity=4)
        a = arena.get((3, 5), np.float64, tag="im2col")
        b = arena.get((3, 5), np.float64, tag=("pad", 1, 1))
        assert a is not b
        assert len(arena) == 2

    def test_zero_on_alloc_zero_fills_fresh_buffers(self):
        arena = ScratchArena(capacity=2)
        buf = arena.get((4, 4), np.float64, zero_on_alloc=True)
        np.testing.assert_array_equal(buf, np.zeros((4, 4)))

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ScratchArena(capacity=0)

    def test_eviction_drops_only_the_oldest(self):
        arena = ScratchArena(capacity=2)
        arena.get((1,), np.float64, tag="a")
        keep = arena.get((1,), np.float64, tag="b")
        arena.get((1,), np.float64, tag="c")  # evicts "a" only
        assert len(arena) == 2
        assert arena.evictions == 1
        assert arena.get((1,), np.float64, tag="b") is keep
        # "a" was evicted: requesting it allocates anew.
        before = arena.allocations
        arena.get((1,), np.float64, tag="a")
        assert arena.allocations == before + 1

    def test_hot_key_survives_cold_key_cycling(self):
        """The regression the LRU fixes: the old scratch dict cleared
        *everything* at the cap, so a workload cycling more shapes than
        the capacity reallocated its hottest buffer every pass.  With
        per-entry LRU eviction the hot buffer must stay resident no
        matter how many cold shapes stream past."""
        arena = ScratchArena(capacity=4)
        hot = arena.get((8, 8), np.float64, tag="hot")
        n_cold = 25
        for i in range(n_cold):
            arena.get((2, 2), np.float64, tag=("cold", i))
            assert arena.get((8, 8), np.float64, tag="hot") is hot
        # Every cold miss past the three free slots evicted exactly one
        # cold entry; the hot buffer was never reallocated.
        assert arena.allocations == 1 + n_cold
        assert arena.evictions == n_cold - 3

    def test_clear_drops_buffers_but_keeps_lifetime_counters(self):
        arena = ScratchArena(capacity=4)
        arena.get((2,), np.float64)
        arena.get((2,), np.float64)
        arena.clear()
        assert len(arena) == 0
        assert arena.total_bytes == 0
        assert arena.allocations == 1
        assert arena.hits == 1

    def test_profiler_high_water_tracks_live_bytes(self):
        """Fresh allocations notify the active profiler with the arena
        total *after* eviction, so the high-water mark reflects bytes
        actually resident, not lifetime churn."""
        arena = ScratchArena(capacity=1)
        with OpProfiler() as profiler:
            arena.get((1,), np.float64)   # 8 bytes live
            arena.get((2,), np.float64)   # evicts first: 16 bytes live
            arena.get((2,), np.float64)   # hit: no notification
        assert profiler.scratch_allocations == 2
        assert profiler.scratch_high_water_bytes == 16


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
