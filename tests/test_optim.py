import math
import tracemalloc

import numpy as np
import pytest

from zslkit import kernels
from zslkit.errors import ShapeMismatchError
from zslkit.optim import AdamState, SgdState, adam_step, sgd_step
from zslkit.optim import ADAM_BLOCK, adam_update


def adam_reference(alpha, beta1, beta2, eps, params, grads):
    """Independent recurrence with plain Python floats: running first and
    second moments, bias correction, then the elementwise scaled step."""
    rows, cols = len(params), len(params[0])
    M = [[0.0] * cols for _ in range(rows)]
    V = [[0.0] * cols for _ in range(rows)]
    p = [[float(params[i][j]) for j in range(cols)] for i in range(rows)]
    for t, G in enumerate(grads, start=1):
        for i in range(rows):
            for j in range(cols):
                g = float(G[i][j])
                M[i][j] = beta1 * M[i][j] + (1.0 - beta1) * g
                V[i][j] = beta2 * V[i][j] + (1.0 - beta2) * g * g
                m_hat = M[i][j] / (1.0 - beta1 ** t)
                v_hat = V[i][j] / (1.0 - beta2 ** t)
                p[i][j] -= alpha * m_hat / (math.sqrt(v_hat) + eps)
    return np.array(p)


class TestSgd:
    def test_unit_rate_from_zero(self):
        G = np.array([[1.0, -2.0], [0.5, 3.0]])
        out = sgd_step(SgdState(alpha=1.0), np.zeros((2, 2)), G)
        np.testing.assert_array_equal(out, -G)

    def test_zero_grad_fixed_point(self):
        params = np.array([[1.0, 2.0]])
        out = sgd_step(SgdState(alpha=0.3), params, np.zeros((1, 2)))
        np.testing.assert_array_equal(out, params)

    def test_two_steps_additive(self):
        rng = np.random.default_rng(0)
        params = rng.normal(size=(3, 2))
        G1, G2 = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        state = SgdState(alpha=0.1)
        out = sgd_step(state, sgd_step(state, params, G1), G2)
        np.testing.assert_allclose(out, params - 0.1 * (G1 + G2), atol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            sgd_step(SgdState(), np.zeros((2, 2)), np.zeros((3, 2)))


class TestAdam:
    def test_first_step_cancels_bias(self):
        # constant gradient g: m_hat = g, v_hat = g^2, step = -a*g/(|g|+eps)
        g = 3.0
        alpha = 0.01
        state = AdamState.for_shape((2, 2), alpha=alpha)
        params = np.zeros((2, 2))
        out, new_state = adam_step(state, params, np.full((2, 2), g))
        expected = -alpha * g / (abs(g) + state.epsilon)
        np.testing.assert_allclose(out, np.full((2, 2), expected), atol=1e-18)
        np.testing.assert_allclose(out, np.full((2, 2), -alpha * np.sign(g)),
                                   atol=alpha * 1e-6)
        assert new_state.t == 1
        assert state.t == 0  # input state untouched

    def test_zero_grad_at_start_is_noop(self):
        state = AdamState.for_shape((2, 3), alpha=0.5)
        params = np.arange(6.0).reshape(2, 3)
        out, _ = adam_step(state, params, np.zeros((2, 3)))
        np.testing.assert_array_equal(out, params)

    def test_three_steps_vs_reference(self):
        G = np.array([[0.5, -1.0], [2.0, 0.25]])
        params = np.array([[1.0, 1.0], [1.0, 1.0]])
        state = AdamState.for_shape((2, 2), alpha=0.1)
        p = params
        for _ in range(3):
            p, state = adam_step(state, p, G)
        expected = adam_reference(0.1, 0.9, 0.999, 1e-8, params, [G, G, G])
        np.testing.assert_allclose(p, expected, atol=1e-12)

    def test_ten_step_random_trajectory_vs_reference(self):
        rng = np.random.default_rng(1)
        params = rng.normal(size=(4, 5))
        grads = [rng.normal(size=(4, 5)) for _ in range(10)]
        state = AdamState.for_shape((4, 5), alpha=0.02, beta1=0.9, beta2=0.999)
        p = params
        for G in grads:
            p, state = adam_step(state, p, G)
        expected = adam_reference(0.02, 0.9, 0.999, 1e-8, params, grads)
        np.testing.assert_allclose(p, expected, atol=1e-12)

    def test_sign_sgd_limit(self):
        # beta1 = beta2 = 0 collapses to params - a*G/(|G|+eps)
        rng = np.random.default_rng(2)
        params = rng.normal(size=(3, 3))
        G = rng.normal(size=(3, 3))
        state = AdamState.for_shape((3, 3), alpha=0.05, beta1=0.0, beta2=0.0)
        out, state = adam_step(state, params, G)
        np.testing.assert_allclose(
            out, params - 0.05 * G / (np.abs(G) + 1e-8), atol=1e-15)
        out2, _ = adam_step(state, out, G)
        np.testing.assert_allclose(
            out2, out - 0.05 * G / (np.abs(G) + 1e-8), atol=1e-15)

    def test_first_step_magnitude_bound(self):
        rng = np.random.default_rng(3)
        alpha = 0.01
        for _ in range(20):
            state = AdamState.for_shape((4, 4), alpha=alpha)
            G = rng.normal(size=(4, 4)) * 10.0 ** int(rng.integers(-3, 4))
            out, _ = adam_step(state, np.zeros((4, 4)), G)
            assert np.all(np.abs(out) <= alpha * 1.0001)

    def test_bitwise_determinism(self):
        rng = np.random.default_rng(4)
        params = rng.normal(size=(3, 2))
        grads = [rng.normal(size=(3, 2)) for _ in range(5)]

        def run():
            state = AdamState.for_shape((3, 2), alpha=0.1)
            p = params
            for G in grads:
                p, state = adam_step(state, p, G)
            return p

        assert run().tobytes() == run().tobytes()

    def test_moments_track_shapes(self):
        state = AdamState.for_shape((2, 2))
        with pytest.raises(ShapeMismatchError):
            adam_step(state, np.zeros((3, 3)), np.zeros((3, 3)))
        with pytest.raises(ShapeMismatchError):
            adam_step(AdamState.for_shape((2, 2)), np.zeros((2, 2)), np.zeros((4, 4)))

    def test_lazy_moment_allocation(self):
        out, state = adam_step(AdamState(alpha=0.1), np.zeros((2, 2)),
                               np.full((2, 2), 2.0))
        assert state.M.shape == (2, 2)
        assert state.t == 1


# One block; several blocks with a ragged last one; rows wider than a block.
BLOCK_SHAPES = [(3, 4), (5, 2 * ADAM_BLOCK // 5 + 7), (2, ADAM_BLOCK + 3)]


class TestAdamUpdate:
    @pytest.mark.parametrize("shape", BLOCK_SHAPES)
    def test_bit_identical_to_adam_step(self, shape):
        rng = np.random.default_rng(5)
        params = rng.normal(size=shape)
        ref_p, ref = params, AdamState.for_shape(shape, alpha=0.02)
        p, state = params.copy(), AdamState.for_shape(shape, alpha=0.02)
        for _ in range(4):
            G = rng.normal(size=shape) * 10.0 ** int(rng.integers(-3, 4))
            ref_p, ref = adam_step(ref, ref_p, G)
            assert adam_update(state, p, G) is None
        np.testing.assert_array_equal(p, ref_p)
        np.testing.assert_array_equal(state.M, ref.M)
        np.testing.assert_array_equal(state.V, ref.V)
        assert state.t == ref.t == 4

    @pytest.mark.parametrize("shape", BLOCK_SHAPES)
    def test_bit_identical_to_reference(self, shape):
        rng = np.random.default_rng(6)
        params = rng.normal(size=shape)
        grads = [rng.normal(size=shape) for _ in range(3)]
        p, state = params.copy(), AdamState.for_shape(shape, alpha=0.05)
        for G in grads:
            adam_update(state, p, G)
        np.testing.assert_array_equal(
            p, adam_reference(0.05, 0.9, 0.999, 1e-8, params, grads))

    @pytest.mark.parametrize("shape", BLOCK_SHAPES)
    def test_block_filled_gradient_bit_identical_to_adam_step(self, shape):
        rng = np.random.default_rng(7)
        params = rng.normal(size=shape)
        ref_p, ref = params, AdamState.for_shape(shape, alpha=0.02)
        p, state = params.copy(), AdamState.for_shape(shape, alpha=0.02)
        Psi_e = rng.normal(size=(24, shape[1]))
        for _ in range(4):
            A = rng.normal(size=(shape[0], 24)) * 10.0 ** int(rng.integers(-3, 4))
            ref_p, ref = adam_step(ref, ref_p, kernels.gradient(A, Psi_e))
            adam_update(state, p, lambda start, stop, out:
                        kernels.grad_rows(A, Psi_e, start, stop, out))
        np.testing.assert_array_equal(p, ref_p)
        np.testing.assert_array_equal(state.M, ref.M)
        np.testing.assert_array_equal(state.V, ref.V)

    def test_step_holds_no_full_size_temporary(self):
        # A kernel call and a block-filled update at d=1023, m=160 must peak
        # below one parameter-sized array; the full gradient alone is one.
        rng = np.random.default_rng(8)
        d, m, K, B = 1023, 160, 24, 100
        W_e = rng.normal(size=(d + 1, m + 1)) / np.sqrt(d * m)
        Phi_e = np.hstack([rng.normal(size=(B, d)), np.ones((B, 1))])
        Psi_e = np.hstack([rng.normal(size=(K, m)), np.ones((K, 1))])
        labels = rng.integers(0, K, size=B)
        state = AdamState.for_shape(W_e.shape)
        tracemalloc.start()
        try:
            _, A = kernels.nll_and_grad(W_e, Phi_e, labels, Psi_e)
            adam_update(state, W_e, lambda start, stop, out:
                        kernels.grad_rows(A, Psi_e, start, stop, out))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < W_e.nbytes

    def test_lazy_moment_allocation(self):
        state = AdamState(alpha=0.1)
        params = np.zeros((2, 2))
        adam_update(state, params, np.full((2, 2), 2.0))
        assert state.M.shape == (2, 2)
        assert state.t == 1
        np.testing.assert_allclose(params, -0.1, rtol=1e-6)

    def test_rejects_bad_shapes_and_layouts(self):
        with pytest.raises(ShapeMismatchError):
            adam_update(AdamState.for_shape((2, 2)), np.zeros((3, 3)),
                        np.zeros((3, 3)))
        with pytest.raises(ShapeMismatchError):
            adam_update(AdamState.for_shape((2, 2)), np.zeros((2, 2)),
                        np.zeros((4, 4)))
        # a strided view cannot be updated through its flat blocks
        state = AdamState.for_shape((2, 2))
        with pytest.raises(ValueError):
            adam_update(state, np.zeros((2, 4))[:, ::2], np.zeros((2, 2)))
        assert state.t == 0
