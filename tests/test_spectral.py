"""Power iteration and spectral normalization against an SVD oracle."""

import numpy as np
import pytest

from kggan.autodiff import Tensor
from kggan.spectral import power_iteration_step, spectral_normalize


def top_singular_value(w):
    # oracle: dense SVD from the numerics library
    return float(np.linalg.svd(w, compute_uv=False)[0])


def unit_vector(n, rng):
    u = rng.standard_normal(n)
    return u / np.linalg.norm(u)


def converged(w, steps=100, seed=0):
    """(u, sigma) after ``steps`` power steps from a random unit vector."""
    u, sigma = unit_vector(w.shape[0], np.random.default_rng(seed)), None
    for _ in range(steps):
        u, sigma = power_iteration_step(w, u)
    return u, sigma


class TestPowerIteration:
    def test_diagonal_matrix(self):
        _, sigma = converged(np.diag([3.0, 1.0]), steps=50)
        assert abs(sigma - 3.0) < 1e-6

    def test_single_offdiagonal_entry(self):
        _, sigma = converged(np.array([[0.0, 2.0], [0.0, 0.0]]), steps=50)
        assert abs(sigma - 2.0) < 1e-6

    def test_random_matrix_matches_svd_oracle(self, rng):
        w = rng.standard_normal((5, 3))
        _, sigma = converged(w)
        assert abs(sigma - top_singular_value(w)) < 1e-6

    def test_twenty_random_small_matrices(self, rng):
        for _ in range(20):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(2, 7))
            w = rng.standard_normal((m, n))
            _, sigma = converged(w, steps=150)
            assert abs(sigma - top_singular_value(w)) < 1e-6

    def test_u_stays_unit(self, rng):
        u, sigma = converged(rng.standard_normal((4, 4)), steps=7)
        assert abs(np.linalg.norm(u) - 1.0) < 1e-9
        assert sigma > 0

    def test_zero_matrix_flagged_degenerate(self, rng):
        """In float32 too, whose zero norm the bound must be compared
        against in float64: NumPy rounds a python 1e-150 to float32 0."""
        for dtype in (np.float64, np.float32):
            u = unit_vector(3, rng).astype(dtype)
            got, sigma = power_iteration_step(np.zeros((3, 2), dtype=dtype), u)
            assert sigma is None
            assert got is u

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_nan_weight_gives_a_nan_sigma(self, rng, value):
        """Nothing here stops a NaN or an infinite weight, and nothing
        warns: its sigma is NaN, and the training step's NaN gradients end
        in ``adam_step``'s abort."""
        for dtype in (np.float64, np.float32):
            w = rng.standard_normal((4, 3)).astype(dtype)
            w[0, 0] = value
            _, sigma = power_iteration_step(w, unit_vector(4, rng).astype(dtype))
            assert np.isnan(sigma)

    @pytest.mark.parametrize("shape", [(3, 5), (16, 1), (64, 128), (768, 128)])
    def test_matches_two_product_formula_bitwise(self, rng, shape):
        # reference: the step with w @ v formed a second time for sigma
        w = rng.standard_normal(shape)
        u = unit_vector(shape[0], rng)
        got = u.copy()
        for _ in range(3):
            v = w.T @ u
            v = v / np.linalg.norm(v)
            u_new = w @ v
            u = u_new / np.linalg.norm(u_new)
            sigma = float(u @ (w @ v))
            got, got_sigma = power_iteration_step(w, got)
            assert got.tobytes() == u.tobytes()
            assert got_sigma == sigma


class TestSpectralNormalize:
    def test_diagonal_scaling(self):
        w = Tensor(np.diag([3.0, 1.0]))
        _, sigma = converged(w.data, steps=60)
        out = spectral_normalize(w, sigma)
        assert np.allclose(out.data, np.diag([1.0, 1.0 / 3.0]), atol=1e-6)
        # original untouched
        assert np.array_equal(w.data, np.diag([3.0, 1.0]))

    def test_already_normalized_unchanged(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        w = Tensor(q)  # orthogonal: every singular value is 1
        _, sigma = converged(w.data)
        out = spectral_normalize(w, sigma)
        assert np.max(np.abs(out.data - w.data)) < 1e-9

    def test_output_top_singular_value_near_one(self, rng):
        for _ in range(5):
            w = Tensor(rng.standard_normal((4, 4)) * 3.0)
            _, sigma = converged(w.data)
            out = spectral_normalize(w, sigma)
            assert 0.99 <= top_singular_value(out.data) <= 1.01

    def test_degenerate_returns_weight_unchanged(self, rng):
        w = Tensor(np.zeros((3, 3)))
        _, sigma = power_iteration_step(w.data, unit_vector(3, rng))
        assert sigma is None
        assert spectral_normalize(w, sigma) is w

    def test_gradient_flows_through_normalization(self, rng):
        from kggan import autodiff as ad

        w = Tensor(rng.standard_normal((3, 3)))
        _, sigma = converged(w.data)
        out = spectral_normalize(w, sigma)
        (grad,) = ad.backward(ad.tsum(out), [w])
        assert np.allclose(grad, np.full((3, 3), 1.0 / sigma))
