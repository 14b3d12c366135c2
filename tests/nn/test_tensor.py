"""Tensor arithmetic, shapes and gradient correctness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.nn.tensor import Tensor, _unbroadcast, as_tensor


def numerical_grad(fn, x, eps=1e-6):
    """Central-difference gradient of a scalar-valued fn of ndarray x."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        old = x[i]
        x[i] = old + eps
        f_plus = fn()
        x[i] = old - eps
        f_minus = fn()
        x[i] = old
        grad[i] = (f_plus - f_minus) / (2 * eps)
        it.iternext()
    return grad


class TestBasics:
    def test_construction_from_list(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.dtype == np.float64

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t

    def test_as_tensor_from_scalar(self):
        t = as_tensor(3.5)
        assert t.shape == ()
        assert t.item() == 3.5

    def test_detach_cuts_graph(self):
        t = Tensor([1.0], requires_grad=True)
        d = (t * 2).detach()
        assert not d.requires_grad
        assert d._grad_fn is None

    def test_item_scalar(self):
        assert Tensor(np.asarray(2.0)).item() == 2.0

    def test_repr_mentions_requires_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))

    def test_copy_inplace(self):
        t = Tensor(np.zeros(3))
        t.copy_(np.ones(3))
        assert (t.data == 1).all()

    def test_len(self):
        assert len(Tensor(np.zeros((4, 2)))) == 4


class TestArithmeticForward:
    def test_add(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_allclose(out.data, [4.0, 6.0])

    def test_radd_scalar(self):
        out = 1.0 + Tensor([1.0])
        np.testing.assert_allclose(out.data, [2.0])

    def test_sub(self):
        np.testing.assert_allclose((Tensor([3.0]) - 1.0).data, [2.0])

    def test_rsub(self):
        np.testing.assert_allclose((5.0 - Tensor([3.0])).data, [2.0])

    def test_mul_broadcast(self):
        out = Tensor(np.ones((2, 3))) * Tensor([1.0, 2.0, 3.0])
        np.testing.assert_allclose(out.data, [[1, 2, 3], [1, 2, 3]])

    def test_div(self):
        np.testing.assert_allclose((Tensor([6.0]) / 2.0).data, [3.0])

    def test_rdiv(self):
        np.testing.assert_allclose((6.0 / Tensor([2.0])).data, [3.0])

    def test_neg(self):
        np.testing.assert_allclose((-Tensor([1.0, -2.0])).data, [-1.0, 2.0])

    def test_pow(self):
        np.testing.assert_allclose((Tensor([2.0]) ** 3).data, [8.0])

    def test_matmul(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose((a @ b).data, b.data)

    def test_comparisons_return_ndarray(self):
        mask = Tensor([1.0, 3.0]) > 2.0
        assert isinstance(mask, np.ndarray)
        assert mask.tolist() == [False, True]


def _matmul(a, b):
    return a @ b


# Operand shapes per binary op: equal shapes, and the broadcasts PACT
# (a 0-d scalar) and BatchNorm (a (1, C, 1, 1) operand) use.
BINARY_SHAPES = [
    ((3, 4), (3, 4)),
    ((2, 3, 4, 4), ()),
    ((), (2, 3, 4, 4)),
    ((2, 3, 4, 4), (1, 3, 1, 1)),
]
MATMUL_SHAPES = [((3, 4), (4, 2)), ((2, 3, 4), (4, 2))]
# Which operands require grad: both, only ``a``, only ``b``.
REQUIRES_GRAD = [(True, True), (True, False), (False, True)]


class TestGradients:
    @pytest.mark.parametrize(
        "op",
        [
            lambda a, b: a + b,
            lambda a, b: a - b,
            lambda a, b: a * b,
            lambda a, b: a / b,
            _matmul,
        ],
    )
    def test_binary_op_grads(self, op, rng):
        shapes = MATMUL_SHAPES if op is _matmul else BINARY_SHAPES
        a = Tensor(rng.normal(size=shapes[0][0]) + 3.0, requires_grad=True)
        b = Tensor(rng.normal(size=shapes[0][1]) + 3.0, requires_grad=True)
        out = (op(a, b) ** 2).sum()
        out.backward()
        for t in (a, b):
            num = numerical_grad(lambda: (op(a, b) ** 2).sum().item(), t.data)
            np.testing.assert_allclose(t.grad, num, atol=1e-5)

        # A constant operand gets no gradient: its slot in the
        # Function's backward return is None, and the other operand's
        # gradient keeps the bytes it has when both require grad.
        for a_shape, b_shape in shapes:
            a0 = rng.normal(size=a_shape) + 3.0
            b0 = rng.normal(size=b_shape) + 3.0
            upstream = None
            both = None
            for needs in REQUIRES_GRAD:
                case = f"{a_shape} {b_shape} requires_grad={needs}"
                a = Tensor(a0, requires_grad=needs[0])
                b = Tensor(b0, requires_grad=needs[1])
                out = op(a, b)
                if upstream is None:
                    upstream = rng.normal(size=out.shape)
                node = out._grad_fn
                slots = node.fn.backward(node.ctx, upstream)
                for slot, need in zip(slots, needs):
                    assert (slot is None) != need, case
                out.backward(upstream)
                grads = (a.grad, b.grad)
                if both is None:
                    both = grads
                    continue
                for got, want, need in zip(grads, both, needs):
                    if need:
                        assert got.shape == want.shape, case
                        assert got.tobytes() == want.tobytes(), case
                    else:
                        assert got is None, case

    def test_broadcast_grad_shapes(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        (a * b).sum().backward()
        assert a.grad.shape == (2, 3)
        assert b.grad.shape == (3,)
        np.testing.assert_allclose(b.grad, a.data.sum(axis=0))

    def test_scalar_parameter_grad_keeps_ndim(self, rng):
        # Regression test: scalar (0-d) parameters like PACT's alpha must
        # receive 0-d gradients.
        a = Tensor(np.asarray(1.0), requires_grad=True)
        x = Tensor(rng.normal(size=(4,)))
        ((x - a) ** 2).sum().backward()
        assert a.grad.shape == ()

    def test_matmul_grads(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b.data.T)
        np.testing.assert_allclose(b.grad, a.data.T @ np.ones((3, 2)))

    def test_reused_tensor_accumulates(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        out = (a * a).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, 2 * a.data)

    def test_grad_accumulates_across_backwards(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).sum().backward()
        (a * 2).sum().backward()
        np.testing.assert_allclose(a.grad, [4.0])

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).sum().backward()
        a.zero_grad()
        assert a.grad is None

    def test_backward_requires_scalar(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError, match="scalar"):
            (a * 2).backward()

    def test_elementwise_grads(self, rng):
        funcs = [
            lambda t: t.exp(),
            lambda t: (t.abs() + 1.0).log(),
            lambda t: t.tanh(),
            lambda t: t.sigmoid(),
            lambda t: t.abs(),
            lambda t: t.relu(),
            lambda t: t.clip(-0.5, 0.5),
            lambda t: (t * t + 1.0).sqrt(),
        ]
        for fn in funcs:
            t = Tensor(rng.normal(size=(5,)) + 0.1, requires_grad=True)
            (fn(t) ** 2).sum().backward()
            num = numerical_grad(lambda: (fn(t) ** 2).sum().item(), t.data)
            np.testing.assert_allclose(t.grad, num, atol=1e-5)


class TestShapes:
    def test_reshape_roundtrip_grad(self, rng):
        t = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        t.reshape(3, 4).sum().backward()
        assert t.grad.shape == (2, 6)

    def test_reshape_tuple_arg(self):
        t = Tensor(np.zeros((2, 6)))
        assert t.reshape((4, 3)).shape == (4, 3)

    def test_transpose_grad(self, rng):
        t = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        (t.transpose(2, 0, 1) ** 2).sum().backward()
        num = numerical_grad(
            lambda: (t.transpose(2, 0, 1) ** 2).sum().item(), t.data
        )
        np.testing.assert_allclose(t.grad, num, atol=1e-5)

    def test_T_matches_numpy(self, rng):
        t = Tensor(rng.normal(size=(2, 3)))
        np.testing.assert_allclose(t.T.data, t.data.T)

    def test_flatten(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.flatten(start_dim=1).shape == (2, 12)

    def test_getitem_grad_scatter(self, rng):
        t = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        t[1:3].sum().backward()
        expected = np.zeros((4, 3))
        expected[1:3] = 1.0
        np.testing.assert_allclose(t.grad, expected)

    def test_getitem_fancy_index_accumulates(self):
        t = Tensor(np.arange(4.0), requires_grad=True)
        idx = np.array([0, 0, 2])
        t[idx].sum().backward()
        np.testing.assert_allclose(t.grad, [2.0, 0.0, 1.0, 0.0])


class TestReductions:
    def test_sum_axis_keepdims(self, rng):
        t = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        out = t.sum(axis=(0, 2), keepdims=True)
        assert out.shape == (1, 3, 1)
        out.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones((2, 3, 4)))

    def test_mean_grad_scaling(self, rng):
        t = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        t.mean().backward()
        np.testing.assert_allclose(t.grad, np.full((4, 5), 1 / 20))

    def test_mean_axis(self, rng):
        t = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        t.mean(axis=0).sum().backward()
        np.testing.assert_allclose(t.grad, np.full((4, 5), 1 / 4))

    def test_max_forward(self, rng):
        data = rng.normal(size=(3, 4))
        np.testing.assert_allclose(
            Tensor(data).max(axis=1).data, data.max(axis=1)
        )

    def test_max_grad_goes_to_argmax(self):
        t = Tensor(np.array([[1.0, 5.0, 2.0]]), requires_grad=True)
        t.max(axis=1).sum().backward()
        np.testing.assert_allclose(t.grad, [[0.0, 1.0, 0.0]])

    def test_max_grad_splits_ties(self):
        t = Tensor(np.array([[2.0, 2.0]]), requires_grad=True)
        t.max(axis=1).sum().backward()
        np.testing.assert_allclose(t.grad, [[0.5, 0.5]])

    def test_min(self, rng):
        data = rng.normal(size=(3, 4))
        np.testing.assert_allclose(
            Tensor(data).min(axis=1).data, data.min(axis=1)
        )


class TestUnbroadcast:
    @given(
        arrays(np.float64, array_shapes(min_dims=1, max_dims=3, max_side=4),
               elements=st.floats(-10, 10)),
    )
    @settings(max_examples=30, deadline=None)
    def test_unbroadcast_inverts_broadcast(self, base):
        # Broadcasting base up then unbroadcasting the all-ones grad must
        # give the multiplicity of each element.
        target_shape = (2,) + base.shape
        grad = np.ones(target_shape)
        result = _unbroadcast(grad, base.shape)
        assert result.shape == base.shape
        np.testing.assert_allclose(result, np.full(base.shape, 2.0))

    def test_unbroadcast_inner_axis(self):
        grad = np.ones((3, 4))
        result = _unbroadcast(grad, (3, 1))
        assert result.shape == (3, 1)
        np.testing.assert_allclose(result, np.full((3, 1), 4.0))

    def test_unbroadcast_to_scalar(self):
        assert _unbroadcast(np.ones((2, 3)), ()).shape == ()
