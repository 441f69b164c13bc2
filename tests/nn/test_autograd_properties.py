"""Hypothesis property tests: autograd matches numerical gradients on
random shapes and random op chains."""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.nn import Tensor

from .conftest import assert_grad_close, numerical_gradient

shapes = st.tuples(st.integers(1, 4), st.integers(1, 4))


def random_array(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


SMOOTH_OPS = {
    "tanh": lambda t: t.tanh(),
    "sigmoid": lambda t: t.sigmoid(),
    "exp": lambda t: (t * 0.3).exp(),
    "square": lambda t: t * t,
    "affine": lambda t: t * 2.0 + 1.0,
    "softmax": lambda t: t.softmax(axis=-1),
}


#: largest |value| a drawn chain may reach.  ``exp`` of ``square``
#: outputs can overflow float64 (``['square', 'square', 'exp', 'exp']``
#: on a N(0, 1) draw does); past that the central difference has no
#: finite reference to check against.
CHAIN_BOUND = 1e6


class TestRandomChains:
    @given(shape=shapes, seed=st.integers(0, 10_000),
           ops=st.lists(st.sampled_from(sorted(SMOOTH_OPS)),
                        min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    @example(shape=(4, 4), seed=0, ops=["square", "square", "exp", "exp"])
    def test_chain_gradient_matches_numeric(self, shape, seed, ops):
        data = random_array(shape, seed)

        def apply_chain(tensor):
            for name in ops:
                tensor = SMOOTH_OPS[name](tensor)
            return tensor

        with np.errstate(over="ignore"):
            value = apply_chain(Tensor(data)).data
        assume(np.all(np.abs(value) < CHAIN_BOUND))
        x = Tensor(data.copy(), requires_grad=True)
        apply_chain(x).sum().backward()
        numeric = numerical_gradient(
            lambda: float(apply_chain(Tensor(data)).data.sum()), data)
        assert_grad_close(x.grad, numeric, 1e-4)

    @given(shape=shapes, seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_sum_then_broadcast_consistency(self, shape, seed):
        data = random_array(shape, seed)
        x = Tensor(data.copy(), requires_grad=True)
        (x.sum(axis=0, keepdims=True) * x).sum().backward()
        numeric = numerical_gradient(
            lambda: float((Tensor(data).sum(axis=0, keepdims=True).data
                           * data).sum()), data)
        assert_grad_close(x.grad, numeric, 1e-4)

    @given(rows=st.integers(1, 5), inner=st.integers(1, 5),
           cols=st.integers(1, 5), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matmul_any_shape(self, rows, inner, cols, seed):
        rng = np.random.default_rng(seed)
        a_data = rng.normal(size=(rows, inner))
        b_data = rng.normal(size=(inner, cols))
        a = Tensor(a_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        ((a @ b) ** 2).sum().backward()

        def loss():
            return float(((Tensor(a_data) @ Tensor(b_data)).data ** 2
                          ).sum())

        assert_grad_close(a.grad, numerical_gradient(loss, a_data), 1e-4)
        assert_grad_close(b.grad, numerical_gradient(loss, b_data), 1e-4)


class TestAlgebraicIdentities:
    @given(shape=shapes, seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_softmax_invariant_to_shift(self, shape, seed):
        data = random_array(shape, seed)
        a = Tensor(data).softmax(axis=-1)
        b = Tensor(data + 100.0).softmax(axis=-1)
        assert np.allclose(a.data, b.data, atol=1e-9)

    @given(shape=shapes, seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_sum_axes_decompose(self, shape, seed):
        data = random_array(shape, seed)
        t = Tensor(data)
        assert np.allclose(t.sum().data,
                           t.sum(axis=0).sum().data, atol=1e-9)

    @given(shape=shapes, seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_mean_equals_sum_over_count(self, shape, seed):
        data = random_array(shape, seed)
        t = Tensor(data)
        assert np.allclose(t.mean().data, t.sum().data / data.size)

    @given(shape=shapes, seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_transpose_involution(self, shape, seed):
        data = random_array(shape, seed)
        t = Tensor(data)
        assert np.allclose(t.transpose().transpose().data, data)
