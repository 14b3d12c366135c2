"""Autograd engine: tape mechanics, no_grad, graph edge cases."""

import numpy as np
import pytest

from repro.nn import no_grad
from repro.nn.autograd import Context, Function, is_grad_enabled
from repro.nn.tensor import Tensor


class TestGradMode:
    def test_no_grad_disables_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad
        assert y._grad_fn is None

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_nesting(self):
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert is_grad_enabled()


class TestGraph:
    def test_output_requires_grad_propagates(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([2.0])
        assert (a + b).requires_grad
        assert not (b + b).requires_grad

    def test_no_grad_inputs_no_graph(self):
        a = Tensor([1.0])
        out = a * 2
        assert out._grad_fn is None

    def test_deep_chain_no_recursion_error(self):
        # The iterative topo sort must handle graphs deeper than the
        # Python recursion limit.
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 0.001
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_diamond_graph_accumulates_once_per_path(self):
        x = Tensor([2.0], requires_grad=True)
        a = x * 3
        b = x * 5
        (a + b).sum().backward()
        np.testing.assert_allclose(x.grad, [8.0])

    def test_disconnected_leaf_gets_no_grad(self):
        x = Tensor([1.0], requires_grad=True)
        y = Tensor([1.0], requires_grad=True)
        (x * 2).sum().backward()
        assert y.grad is None

    def test_backward_through_detach_stops(self):
        x = Tensor([3.0], requires_grad=True)
        y = (x * 2).detach()
        z = Tensor(y.data, requires_grad=True)
        (z * 5).sum().backward()
        assert x.grad is None


class TestCustomFunction:
    def test_custom_function_roundtrip(self):
        class Square(Function):
            @staticmethod
            def forward(ctx: Context, a):
                ctx.save(a)
                return a * a

            @staticmethod
            def backward(ctx: Context, grad):
                (a,) = ctx.saved
                return (2 * a * grad,)

        x = Tensor([3.0], requires_grad=True)
        Square.apply(x).sum().backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_wrong_grad_count_raises(self):
        class Bad(Function):
            @staticmethod
            def forward(ctx: Context, a, b):
                return a + b

            @staticmethod
            def backward(ctx: Context, grad):
                return (grad,)  # should be two

        x = Tensor([1.0], requires_grad=True)
        y = Tensor([1.0], requires_grad=True)
        out = Bad.apply(x, y)
        with pytest.raises(RuntimeError, match="returned 1 grads"):
            out.sum().backward()

    def test_wrong_grad_shape_raises(self):
        class BadShape(Function):
            @staticmethod
            def forward(ctx: Context, a):
                return a.copy()

            @staticmethod
            def backward(ctx: Context, grad):
                return (np.zeros(99),)

        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError, match="shape"):
            BadShape.apply(x).sum().backward()

    def test_none_grad_skipped(self):
        class HalfGrad(Function):
            @staticmethod
            def forward(ctx: Context, a, b):
                return a + b

            @staticmethod
            def backward(ctx: Context, grad):
                return grad, None

        x = Tensor([1.0], requires_grad=True)
        y = Tensor([1.0], requires_grad=True)
        HalfGrad.apply(x, y).sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])
        assert y.grad is None

    def test_non_tensor_kwargs_passed_through(self):
        class Scale(Function):
            @staticmethod
            def forward(ctx: Context, a, factor):
                ctx.save(factor)
                return a * factor

            @staticmethod
            def backward(ctx: Context, grad):
                (factor,) = ctx.saved
                return (grad * factor,)

        x = Tensor([2.0], requires_grad=True)
        out = Scale.apply(x, factor=4.0)
        np.testing.assert_allclose(out.data, [8.0])
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_needs_input_grad_flags(self):
        seen = {}

        class Probe(Function):
            @staticmethod
            def forward(ctx: Context, a, b):
                seen["flags"] = ctx.needs_input_grad
                return a + b

            @staticmethod
            def backward(ctx: Context, grad):
                return grad, grad

        x = Tensor([1.0], requires_grad=True)
        y = Tensor([1.0])
        Probe.apply(x, y)
        assert seen["flags"] == (True, False)


class TestInferenceFastPath:
    """no_grad dispatch skips the tape entirely but must be
    numerically invisible."""

    def test_dispatch_counter_increments_only_in_no_grad(self):
        from repro.nn.autograd import inference_dispatch_count

        x = Tensor([1.0, 2.0], requires_grad=True)
        before = inference_dispatch_count()
        _ = x * 2  # grad mode: full apply
        assert inference_dispatch_count() == before
        with no_grad():
            _ = x * 2
        assert inference_dispatch_count() == before + 1

    def test_values_match_grad_mode(self, rng=np.random.default_rng(5)):
        from repro.nn import functional as F

        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)) * 0.1)
        b = Tensor(rng.normal(size=(4,)) * 0.1)
        full = F.conv2d(x, w, b, stride=1, padding=1)
        with no_grad():
            fast = F.conv2d(x, w, b, stride=1, padding=1)
        np.testing.assert_array_equal(fast.data, full.data)
        assert fast._grad_fn is None
        assert not fast.requires_grad

    def test_scratch_reuse_does_not_corrupt_sequential_results(self):
        # Same-shape consecutive conv calls share one cached im2col
        # gather index; each no_grad result must reflect its own input
        # and be byte-identical to the grad-mode result.
        from repro.nn import functional as F

        rng = np.random.default_rng(6)
        w = Tensor(rng.normal(size=(2, 3, 3, 3)) * 0.1)
        xs = [Tensor(rng.normal(size=(2, 3, 6, 6))) for _ in range(3)]
        reference = [F.conv2d(x, w, padding=1).data.copy() for x in xs]
        with no_grad():
            fast = [F.conv2d(x, w, padding=1).data for x in xs]
        for got, want in zip(fast, reference):
            np.testing.assert_array_equal(got, want)

    def test_kwargs_and_non_tensor_args_unwrap(self):
        class Scale(Function):
            @staticmethod
            def forward(ctx: Context, a, factor):
                return a * factor

            @staticmethod
            def backward(ctx: Context, grad):
                return (grad,)

        with no_grad():
            out = Scale.apply(Tensor([2.0]), factor=3.0)
        np.testing.assert_allclose(out.data, [6.0])

    def test_saves_in_fast_path_are_discarded(self):
        # Functions save for backward unconditionally; the shared
        # inference context must swallow those saves without growing.
        class Saver(Function):
            @staticmethod
            def forward(ctx: Context, a):
                ctx.save(a, a * 2)
                return a

            @staticmethod
            def backward(ctx: Context, grad):
                return (grad,)

        from repro.nn.autograd import _INFERENCE_CTX

        with no_grad():
            for _ in range(4):
                Saver.apply(Tensor([1.0]))
        assert _INFERENCE_CTX.saved == ()

    def test_no_grad_forward_takes_no_sign(self, monkeypatch):
        """A forward computes nothing that only its backward reads:
        ``|x|`` takes its sign in backward, so ``Tensor.abs()`` and a
        PACT activation quantizer (two ``abs`` each) call ``np.sign``
        zero times under ``no_grad``."""
        from repro.quantization.pact import PACTActivationQuantizer

        calls = []
        sign = np.sign

        def counting_sign(*args, **kwargs):
            calls.append(args)
            return sign(*args, **kwargs)

        monkeypatch.setattr(np, "sign", counting_sign)
        x = Tensor(np.random.default_rng(8).normal(size=(4, 3, 5, 5)))
        quantizer = PACTActivationQuantizer(init_alpha=1.0)
        quantizer.set_bits(4)
        with no_grad():
            x.abs()
            quantizer(x)
        assert calls == []

    def test_abs_clip_max_gradients(self):
        """In grad mode the deferred masks give the gradients, byte for
        byte, that the formulas give on the same inputs, with values on
        the clip bounds and tied maxima."""
        rng = np.random.default_rng(9)
        x0 = np.array([[-1.0, -0.5, 0.0, 0.5, 1.0, 2.0],
                       [3.0, 3.0, -2.0, 0.5, 3.0, -0.5],
                       [0.0, -0.0, 0.25, 0.25, -1.5, 0.25]])
        upstream = rng.normal(size=x0.shape)

        x = Tensor(x0, requires_grad=True)
        x.abs().backward(upstream)
        assert x.grad.tobytes() == (upstream * np.sign(x0)).tobytes()

        x = Tensor(x0, requires_grad=True)
        x.clip(-0.5, 0.5).backward(upstream)
        inside = (x0 >= -0.5) & (x0 <= 0.5)
        assert x.grad.tobytes() == (upstream * inside).tobytes()

        for axis, keepdims in [(None, False), (None, True), (1, False),
                               (1, True), (0, False), (-1, True)]:
            x = Tensor(x0, requires_grad=True)
            out = x.max(axis=axis, keepdims=keepdims)
            g = rng.normal(size=out.shape)
            out.backward(g)
            peak = x0.max(axis=axis, keepdims=True)
            ties = x0 == peak
            counts = ties.sum(axis=axis, keepdims=True)
            spread = np.broadcast_to(g.reshape(peak.shape), x0.shape)
            want = spread * ties / counts
            assert x.grad.tobytes() == want.tobytes(), (axis, keepdims)
