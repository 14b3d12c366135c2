"""Op profiler: analytic FLOPs models, determinism, hook lifecycle."""

import numpy as np
import pytest

from repro import models
from repro.nn import functional as F
from repro.nn.autograd import active_profiler, no_grad
from repro.nn.tensor import Tensor
from repro.telemetry.profiler import (
    OpProfiler,
    estimate_flops,
    profile_model,
)


class TestFlopsModels:
    def test_conv2d_analytic_count(self):
        # 2 * N * OH * OW * F * C * KH * KW, plus bias adds.
        x = np.zeros((2, 3, 8, 8), dtype=np.float64)
        w = np.zeros((4, 3, 3, 3), dtype=np.float64)
        b = np.zeros(4, dtype=np.float64)
        out = np.zeros((2, 4, 8, 8), dtype=np.float64)
        expected = 2 * 2 * 8 * 8 * 4 * 3 * 3 * 3
        assert estimate_flops("conv2d", (x, w), out) == expected
        assert (
            estimate_flops("conv2d", (x, w, b), out)
            == expected + out.size
        )

    def test_matmul_analytic_count(self):
        a = np.zeros((5, 7), dtype=np.float64)
        b = np.zeros((7, 3), dtype=np.float64)
        out = np.zeros((5, 3), dtype=np.float64)
        assert estimate_flops("matmul", (a, b), out) == 2 * 5 * 3 * 7

    def test_unknown_op_falls_back_to_elementwise(self):
        out = np.zeros((4, 4))
        assert estimate_flops("relu", (out,), out) == out.size

    def test_malformed_shapes_fall_back_instead_of_raising(self):
        out = np.zeros((2, 2))
        assert estimate_flops("conv2d", (), out) == out.size


class TestOpProfiler:
    def test_install_and_nested_restore(self):
        assert active_profiler() is None
        outer, inner = OpProfiler(), OpProfiler()
        with outer:
            assert active_profiler() is outer
            with inner:
                assert active_profiler() is inner
            assert active_profiler() is outer
        assert active_profiler() is None

    def test_records_ops_in_both_grad_modes(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        w = Tensor(np.ones((4, 3)), requires_grad=True)  # (out, in)
        profiler = OpProfiler()
        with profiler:
            F.linear(x, w)  # grad mode: tape + profile
            with no_grad():
                F.linear(x, w)  # fast path: still profiled
        stats = profiler.ops["matmul"]
        assert stats.calls == 2
        assert stats.flops == 2 * (2 * 2 * 4 * 3)
        assert stats.total_s > 0.0
        assert profiler.total_flops >= stats.flops

    def test_counts_are_deterministic_across_runs(self):
        """Calls/FLOPs/bytes are pure functions of model and batch —
        two identical passes must agree exactly (only wall clock may
        differ)."""
        net = models.SmallConvNet(width=4, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(2, 3, 32, 32))

        def run():
            profiler = OpProfiler()
            with profiler:
                with no_grad():
                    net(Tensor(x))
            return {
                name: (s.calls, s.flops, s.bytes)
                for name, s in profiler.ops.items()
            }

        assert run() == run()

    def test_summary_and_table_render(self):
        x = Tensor(np.ones((2, 3)))
        w = Tensor(np.ones((4, 3)))
        profiler = OpProfiler()
        with profiler:
            with no_grad():
                F.linear(x, w)
        summary = profiler.summary()
        assert summary["ops"][0]["name"] in ("matmul", "add")
        assert summary["total_flops"] == profiler.total_flops
        table = profiler.format_table()
        assert "matmul" in table and "GFLOP" in table

    def test_uninstalled_profiler_records_nothing(self):
        profiler = OpProfiler()
        with no_grad():
            F.relu(Tensor(np.ones(4)))
        assert profiler.ops == {}


class TestProfileModel:
    def test_inference_profile_covers_conv_hot_path(self):
        net = models.SmallConvNet(width=4, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(2, 3, 32, 32))
        profiler = profile_model(net, x, repeats=2, warmup=1)
        conv_ops = [n for n in profiler.ops if n.startswith("conv2d")]
        assert conv_ops, f"no conv op profiled: {sorted(profiler.ops)}"
        conv = profiler.ops[conv_ops[0]]
        assert conv.calls % 2 == 0  # repeats=2: even call counts
        assert conv.flops > 0 and conv.bytes > 0
        # im2col scratch is armed on the inference path.
        assert active_profiler() is None  # uninstalled afterwards

    def test_train_profile_requires_labels(self):
        net = models.SmallConvNet(width=4, rng=np.random.default_rng(0))
        x = np.zeros((2, 3, 32, 32))
        with pytest.raises(ValueError):
            profile_model(net, x, train=True)

    def test_train_profile_runs_backward(self):
        net = models.SmallConvNet(width=4, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(2, 3, 32, 32))
        y = np.zeros(2, dtype=np.int64)
        profiler = profile_model(net, x, labels=y, train=True,
                                 repeats=1, warmup=0)
        assert "crossentropy" in profiler.ops or profiler.total_s > 0.0
