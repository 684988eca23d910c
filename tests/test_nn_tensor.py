"""Unit and property-based tests for the autograd Tensor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import Tensor, no_grad


def numerical_gradient(function, array, epsilon=1e-6):
    """Central-difference gradient of a scalar-valued function of an array."""
    gradient = np.zeros_like(array, dtype=np.float64)
    flat = array.reshape(-1)
    grad_flat = gradient.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        upper = function(array)
        flat[index] = original - epsilon
        lower = function(array)
        flat[index] = original
        grad_flat[index] = (upper - lower) / (2 * epsilon)
    return gradient


class TestBasicOps:
    def test_add_backward(self):
        a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        b = Tensor([4.0, 5.0, 6.0], requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(3))
        np.testing.assert_allclose(b.grad, np.ones(3))

    def test_mul_backward(self):
        a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        b = Tensor([4.0, 5.0, 6.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, b.data)
        np.testing.assert_allclose(b.grad, a.data)

    def test_div_backward(self):
        a = Tensor([2.0, 4.0], requires_grad=True)
        b = Tensor([4.0, 8.0], requires_grad=True)
        (a / b).sum().backward()
        np.testing.assert_allclose(a.grad, 1.0 / b.data)
        np.testing.assert_allclose(b.grad, -a.data / b.data ** 2)

    def test_pow_backward(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        (a ** 3).sum().backward()
        np.testing.assert_allclose(a.grad, 3 * a.data ** 2)

    def test_scalar_broadcast(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        (a * 2.0 + 1.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 2), 2.0))

    def test_rsub_and_rdiv(self):
        a = Tensor([2.0, 4.0], requires_grad=True)
        out = (8.0 - a).sum() + (8.0 / a).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, -1.0 - 8.0 / a.data ** 2)

    def test_neg(self):
        a = Tensor([1.0, -2.0], requires_grad=True)
        (-a).sum().backward()
        np.testing.assert_allclose(a.grad, [-1.0, -1.0])


class TestBroadcasting:
    def test_bias_broadcast_grad_shape(self):
        x = Tensor(np.random.default_rng(0).normal(size=(5, 3)), requires_grad=True)
        bias = Tensor(np.zeros(3), requires_grad=True)
        (x + bias).sum().backward()
        assert bias.grad.shape == (3,)
        np.testing.assert_allclose(bias.grad, np.full(3, 5.0))

    def test_row_times_column(self):
        row = Tensor(np.ones((1, 4)), requires_grad=True)
        column = Tensor(np.ones((3, 1)), requires_grad=True)
        (row * column).sum().backward()
        np.testing.assert_allclose(row.grad, np.full((1, 4), 3.0))
        np.testing.assert_allclose(column.grad, np.full((3, 1), 4.0))


class TestMatmul:
    def test_matmul_matches_numerical(self):
        rng = np.random.default_rng(1)
        a_data = rng.normal(size=(4, 3))
        b_data = rng.normal(size=(3, 5))

        a = Tensor(a_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        (a @ b).sum().backward()

        grad_a = numerical_gradient(lambda arr: (arr @ b_data).sum(), a_data.copy())
        grad_b = numerical_gradient(lambda arr: (a_data @ arr).sum(), b_data.copy())
        np.testing.assert_allclose(a.grad, grad_a, atol=1e-5)
        np.testing.assert_allclose(b.grad, grad_b, atol=1e-5)

    def test_matrix_vector(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        v = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (a @ v).sum().backward()
        np.testing.assert_allclose(a.grad, np.tile([1.0, 2.0], (3, 1)))
        np.testing.assert_allclose(v.grad, np.full(2, 3.0))


class TestNonlinearities:
    @pytest.mark.parametrize("op", ["relu", "sigmoid", "tanh", "exp"])
    def test_matches_numerical(self, op):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(6,))
        tensor = Tensor(data.copy(), requires_grad=True)
        getattr(tensor, op)().sum().backward()

        def forward(arr):
            if op == "relu":
                return np.maximum(arr, 0).sum()
            if op == "sigmoid":
                return (1 / (1 + np.exp(-arr))).sum()
            if op == "tanh":
                return np.tanh(arr).sum()
            return np.exp(arr).sum()

        expected = numerical_gradient(forward, data.copy())
        np.testing.assert_allclose(tensor.grad, expected, atol=1e-5)

    def test_log_backward(self):
        a = Tensor([1.0, 2.0, 4.0], requires_grad=True)
        a.log().sum().backward()
        np.testing.assert_allclose(a.grad, 1.0 / a.data)

    def test_clip_gradient_masking(self):
        a = Tensor([-2.0, 0.5, 3.0], requires_grad=True)
        a.clip(0.0, 1.0).sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 0.0])


class TestReductionsAndShapes:
    def test_sum_axis_keepdims(self):
        a = Tensor(np.arange(12, dtype=float).reshape(3, 4), requires_grad=True)
        a.sum(axis=1, keepdims=True).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 4)))

    def test_sum_axis_no_keepdims(self):
        a = Tensor(np.arange(12, dtype=float).reshape(3, 4), requires_grad=True)
        a.sum(axis=0).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 4)))

    def test_mean(self):
        a = Tensor(np.ones((2, 5)), requires_grad=True)
        a.mean().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 5), 0.1))

    def test_max_all(self):
        a = Tensor([1.0, 5.0, 3.0], requires_grad=True)
        a.max().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 0.0])

    def test_reshape_roundtrip(self):
        a = Tensor(np.arange(6, dtype=float), requires_grad=True)
        a.reshape(2, 3).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(6))

    def test_transpose(self):
        a = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        a.transpose().sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))

    def test_getitem_rows(self):
        a = Tensor(np.arange(12, dtype=float).reshape(4, 3), requires_grad=True)
        a[np.array([0, 2, 2])].sum().backward()
        expected = np.zeros((4, 3))
        expected[0] = 1
        expected[2] = 2
        np.testing.assert_allclose(a.grad, expected)

    def test_getitem_fancy_pairs(self):
        a = Tensor(np.arange(12, dtype=float).reshape(4, 3), requires_grad=True)
        rows = np.array([0, 1, 3])
        cols = np.array([2, 0, 1])
        a[rows, cols].sum().backward()
        expected = np.zeros((4, 3))
        expected[rows, cols] = 1
        np.testing.assert_allclose(a.grad, expected)

    def test_getitem_overlapping_slices_accumulate(self):
        a = Tensor(np.arange(12, dtype=float).reshape(3, 4), requires_grad=True)
        (a[:, 0:3].sum() + a[:, 1:4].sum() * 2.0 + a[1].sum()).backward()
        expected = np.array([1.0, 3.0, 3.0, 2.0]) + np.array([[0.0], [1.0], [0.0]])
        np.testing.assert_allclose(a.grad, expected)

    def test_concat_backward(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        Tensor.concat([a, b], axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 2)))
        np.testing.assert_allclose(b.grad, np.ones((2, 3)))

    def test_stack_backward(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        Tensor.stack([a, b], axis=0).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(3))
        np.testing.assert_allclose(b.grad, np.ones(3))


class TestGraphBehaviour:
    def test_reused_tensor_accumulates(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        ((a * 2) + (a * 3)).sum().backward()
        np.testing.assert_allclose(a.grad, [5.0, 5.0])

    def test_diamond_graph(self):
        a = Tensor([2.0], requires_grad=True)
        b = a * 3
        c = a * 4
        (b * c).sum().backward()
        # d/da (12 a^2) = 24 a
        np.testing.assert_allclose(a.grad, [48.0])

    def test_no_grad_blocks_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 2
        assert not out.requires_grad

    def test_detach(self):
        a = Tensor([1.0], requires_grad=True)
        assert not a.detach().requires_grad

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).sum().backward()
        a.zero_grad()
        assert a.grad is None


class TestPropertyBased:
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=5),
                      elements=st.floats(-10, 10)))
    @settings(max_examples=50, deadline=None)
    def test_sum_gradient_is_ones(self, data):
        tensor = Tensor(data.copy(), requires_grad=True)
        tensor.sum().backward()
        np.testing.assert_allclose(tensor.grad, np.ones_like(data))

    @given(hnp.arrays(np.float64, st.integers(1, 8).map(lambda n: (n,)),
                      elements=st.floats(-5, 5)),
           hnp.arrays(np.float64, st.integers(1, 8).map(lambda n: (n,)),
                      elements=st.floats(-5, 5)))
    @settings(max_examples=50, deadline=None)
    def test_addition_is_commutative(self, left, right):
        size = min(left.size, right.size)
        left, right = left[:size], right[:size]
        forward = (Tensor(left) + Tensor(right)).numpy()
        backward = (Tensor(right) + Tensor(left)).numpy()
        np.testing.assert_allclose(forward, backward)

    @given(hnp.arrays(np.float64, (4, 3), elements=st.floats(-3, 3)))
    @settings(max_examples=30, deadline=None)
    def test_relu_output_nonnegative(self, data):
        assert (Tensor(data).relu().numpy() >= 0).all()


class TestGradModeThreadSafety:
    """``no_grad`` is per-thread: concurrent inference must not corrupt it."""

    def test_no_grad_is_thread_local(self):
        import threading

        from repro.nn import is_grad_enabled

        seen_inside = []

        def worker():
            with no_grad():
                seen_inside.append(is_grad_enabled())

        with no_grad():
            thread = threading.Thread(target=worker)
            # A sibling thread starts with gradients enabled regardless of
            # this thread's no_grad block...
            probe = []
            checker = threading.Thread(target=lambda: probe.append(is_grad_enabled()))
            checker.start(); checker.join()
            thread.start(); thread.join()
        assert probe == [True]
        assert seen_inside == [False]
        assert is_grad_enabled()

    def test_concurrent_no_grad_blocks_cannot_stick_disabled(self):
        import threading

        from repro.nn import is_grad_enabled

        def worker():
            for _ in range(200):
                with no_grad():
                    pass

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # The historical bug: a shared flag raced across threads and stayed
        # False, so freshly built models registered zero parameters.
        assert is_grad_enabled()
        assert Tensor(np.zeros(2), requires_grad=True).requires_grad
