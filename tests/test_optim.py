"""Adaptive-moment updates against a hand-rolled scalar reference."""

import numpy as np
import pytest

from kggan.autodiff import Tensor
from kggan.errors import ContractError, NumericalAbort
from kggan.optim import AdamState, adam_step


def scalar_adam_reference(grad_fn, w0, lr, beta1, beta2, eps, steps):
    """Plain-float Adam on a scalar problem; returns the weight trajectory."""
    w, m, v = w0, 0.0, 0.0
    trajectory = []
    for t in range(1, steps + 1):
        g = grad_fn(w)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        w = w - lr * m_hat / (np.sqrt(v_hat) + eps)
        trajectory.append(w)
    return trajectory


class TestAdam:
    def test_zero_gradients_leave_params_unchanged(self, rng):
        p = Tensor(rng.standard_normal((3, 3)))
        before = p.data.copy()
        state = AdamState.for_params([p])
        adam_step([p], state, grads=[np.zeros((3, 3))])
        assert np.array_equal(p.data, before)
        assert state.step_count == 1

    def test_first_step_magnitude_is_learning_rate(self, rng):
        p = Tensor(np.zeros(4))
        state = AdamState.for_params([p], learning_rate=0.05)
        g = np.full(4, 1.7)
        adam_step([p], state, grads=[g])
        # bias-corrected ratio g / sqrt(g^2) = sign(g)
        assert np.allclose(np.abs(p.data), 0.05, rtol=1e-6)

    def test_quadratic_trajectory_matches_scalar_reference(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        p = Tensor([1.0])
        state = AdamState.for_params([p], learning_rate=lr, beta1=b1, beta2=b2)
        mine = []
        for _ in range(10):
            adam_step([p], state, grads=[2.0 * p.data])
            mine.append(float(p.data[0]))
        expected = scalar_adam_reference(lambda w: 2.0 * w, 1.0, lr, b1, b2, eps, 10)
        assert np.max(np.abs(np.asarray(mine) - np.asarray(expected))) < 1e-10

    def test_step_count_increments(self, rng):
        p = Tensor(rng.standard_normal(2))
        state = AdamState.for_params([p])
        for expected in range(1, 5):
            adam_step([p], state, grads=[np.ones(2)])
            assert state.step_count == expected

    def test_second_moment_nonnegative(self, rng):
        p = Tensor(rng.standard_normal(6))
        state = AdamState.for_params([p])
        for _ in range(20):
            adam_step([p], state, grads=[rng.standard_normal(6)])
            assert np.all(state.second_moment[0] >= 0.0)

    def test_nan_gradient_aborts_naming_parameter(self):
        p = Tensor(np.zeros(2), name="G.w1")
        state = AdamState.for_params([p])
        with pytest.raises(NumericalAbort, match="G.w1"):
            adam_step([p], state, grads=[np.array([np.nan, 0.0])])

    def test_rejected_step_writes_nothing(self, rng):
        """Every gradient is checked before anything is written: a NaN in
        the last parameter's gradient leaves every parameter and moment,
        and the step count, as they were."""
        params = [Tensor(rng.standard_normal(s), name=f"p{i}") for i, s in enumerate([(4, 3), (3,), (2, 2)])]
        state = AdamState.for_params(params)
        for _ in range(3):
            adam_step(params, state, grads=[rng.standard_normal(p.data.shape) for p in params])

        def arrays():
            return [a.tobytes() for a in [p.data for p in params] + state.first_moment + state.second_moment]

        before = arrays()
        grads = [rng.standard_normal(p.data.shape) for p in params]
        grads[-1][1, 0] = np.nan
        with pytest.raises(NumericalAbort, match="p2"):
            adam_step(params, state, grads=grads)
        assert arrays() == before
        assert state.step_count == 3

    def test_missing_gradient_rejected(self):
        p = Tensor(np.zeros(2))
        state = AdamState.for_params([p])
        with pytest.raises(ContractError):
            adam_step([p], state, grads=[None])

    def test_state_misalignment_rejected(self, rng):
        p = Tensor(np.zeros(2))
        q = Tensor(np.zeros(2))
        state = AdamState.for_params([p])
        with pytest.raises(ContractError):
            adam_step([p, q], state, grads=[np.zeros(2), np.zeros(2)])


def old_adam_step(params, state, grads):
    """The update before scratch arrays, one full-size temporary per operation."""
    t = state.step_count + 1
    b1, b2 = state.beta1, state.beta2
    correction1 = 1.0 - b1**t
    correction2 = 1.0 - b2**t
    for i, (p, g) in enumerate(zip(params, grads)):
        m = state.first_moment[i] * b1
        m += (1.0 - b1) * g
        v = state.second_moment[i] * b2
        v += (1.0 - b2) * (g * g)
        state.first_moment[i] = m
        state.second_moment[i] = v
        m_hat = m / correction1
        v_hat = v / correction2
        p.data = p.data - state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon)
    state.step_count = t


@pytest.mark.parametrize("beta1", [0.0, 0.9])
def test_scratch_update_is_bitwise_the_old_update(rng, beta1):
    shapes = [(7, 5), (5,), (3, 4, 2)]
    # parameters of the update's size, so its last bits reach theirs
    mine = [Tensor(1e-3 * rng.standard_normal(s)) for s in shapes]
    ref = [Tensor(p.data.copy()) for p in mine]
    kwargs = dict(learning_rate=3e-3, beta1=beta1, beta2=0.9)
    s_mine, s_ref = AdamState.for_params(mine, **kwargs), AdamState.for_params(ref, **kwargs)
    for _ in range(20):
        # zeros and tiny values reach the epsilon and signed-zero paths
        grads = [rng.standard_normal(s) * rng.choice([0.0, 1e-12, 1.0], size=s) for s in shapes]
        adam_step(mine, s_mine, grads=grads)
        old_adam_step(ref, s_ref, grads)
    for a, b, m_a, m_b, v_a, v_b in zip(
        mine, ref, s_mine.first_moment, s_ref.first_moment, s_mine.second_moment, s_ref.second_moment
    ):
        assert a.data.tobytes() == b.data.tobytes()
        assert m_a.tobytes() == m_b.tobytes() and v_a.tobytes() == v_b.tobytes()
