"""Power iteration and spectral normalization against an SVD oracle."""

import numpy as np
import pytest

from kggan.autodiff import Tensor
from kggan.errors import ContractError, DimensionError
from kggan.spectral import (
    SIGMA_FLOOR,
    init_spectral_state,
    power_iteration_step,
    spectral_normalize,
)


def top_singular_value(w):
    # oracle: dense SVD from the numerics library
    return float(np.linalg.svd(w, compute_uv=False)[0])


def converged_state(w, steps=100, seed=0):
    state = init_spectral_state(w.shape[0], np.random.default_rng(seed))
    for _ in range(steps):
        power_iteration_step(w, state)
    return state


class TestPowerIteration:
    def test_diagonal_matrix(self):
        w = np.diag([3.0, 1.0])
        state = converged_state(w, steps=50)
        assert abs(state.sigma_estimate - 3.0) < 1e-6

    def test_single_offdiagonal_entry(self):
        w = np.array([[0.0, 2.0], [0.0, 0.0]])
        state = converged_state(w, steps=50)
        assert abs(state.sigma_estimate - 2.0) < 1e-6

    def test_random_matrix_matches_svd_oracle(self, rng):
        w = rng.standard_normal((5, 3))
        state = converged_state(w)
        assert abs(state.sigma_estimate - top_singular_value(w)) < 1e-6

    def test_twenty_random_small_matrices(self, rng):
        for _ in range(20):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(2, 7))
            w = rng.standard_normal((m, n))
            state = converged_state(w, steps=150)
            assert abs(state.sigma_estimate - top_singular_value(w)) < 1e-6

    def test_u_stays_unit(self, rng):
        w = rng.standard_normal((4, 4))
        state = converged_state(w, steps=7)
        assert abs(np.linalg.norm(state.u) - 1.0) < 1e-9
        assert state.sigma_estimate > 0

    def test_zero_matrix_flagged_degenerate(self, rng):
        state = init_spectral_state(3, rng)
        power_iteration_step(np.zeros((3, 2)), state)
        assert state.degenerate
        assert state.sigma_estimate == SIGMA_FLOOR

    def test_wrong_u_length_rejected(self, rng):
        state = init_spectral_state(4, rng)
        with pytest.raises(DimensionError):
            power_iteration_step(np.zeros((3, 2)), state)

    def test_non_2d_rejected(self, rng):
        state = init_spectral_state(3, rng)
        with pytest.raises(DimensionError):
            power_iteration_step(np.zeros(3), state)

    def test_accepts_tensor_weight(self, rng):
        w = Tensor(rng.standard_normal((3, 3)))
        state = converged_state(w.data, steps=1)
        power_iteration_step(w, state)
        assert state.steps == 2

    @pytest.mark.parametrize("shape", [(3, 5), (16, 1), (64, 128), (768, 128)])
    def test_matches_two_product_formula_bitwise(self, rng, shape):
        # reference: the step with w @ v formed a second time for sigma
        w = rng.standard_normal(shape)
        u = init_spectral_state(shape[0], rng).u
        state = init_spectral_state(shape[0], rng)
        state.u = u.copy()
        for _ in range(3):
            v = w.T @ u
            v = v / np.linalg.norm(v)
            u_new = w @ v
            u = u_new / np.linalg.norm(u_new)
            sigma = float(u @ (w @ v))
            power_iteration_step(w, state)
            assert state.u.tobytes() == u.tobytes()
            assert state.sigma_estimate == sigma


class TestSpectralNormalize:
    def test_diagonal_scaling(self):
        w = Tensor(np.diag([3.0, 1.0]))
        state = converged_state(w.data, steps=60)
        out = spectral_normalize(w, state)
        assert np.allclose(out.data, np.diag([1.0, 1.0 / 3.0]), atol=1e-6)
        # original untouched
        assert np.array_equal(w.data, np.diag([3.0, 1.0]))

    def test_already_normalized_unchanged(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        w = Tensor(q)  # orthogonal: every singular value is 1
        state = converged_state(w.data)
        out = spectral_normalize(w, state)
        assert np.max(np.abs(out.data - w.data)) < 1e-9

    def test_output_top_singular_value_near_one(self, rng):
        for _ in range(5):
            w = Tensor(rng.standard_normal((4, 4)) * 3.0)
            state = converged_state(w.data)
            out = spectral_normalize(w, state)
            assert 0.99 <= top_singular_value(out.data) <= 1.01

    def test_requires_prior_power_step(self, rng):
        w = Tensor(rng.standard_normal((3, 3)))
        state = init_spectral_state(3, rng)
        with pytest.raises(ContractError):
            spectral_normalize(w, state)

    def test_degenerate_returns_weight_unchanged(self, rng):
        w = Tensor(np.zeros((3, 3)))
        state = init_spectral_state(3, rng)
        power_iteration_step(w, state)
        out = spectral_normalize(w, state)
        assert out is w
        assert state.degenerate

    def test_gradient_flows_through_normalization(self, rng):
        from kggan import autodiff as ad

        w = Tensor(rng.standard_normal((3, 3)))
        state = converged_state(w.data)
        out = spectral_normalize(w, state)
        (grad,) = ad.backward(ad.tsum(out), [w])
        assert np.allclose(grad, np.full((3, 3), 1.0 / state.sigma_estimate))
