"""Adaptive-moment updates against a hand-rolled scalar reference."""

import tracemalloc

import numpy as np
import pytest

from kggan.autodiff import Tensor, uniform_init, zeros_init
from kggan.errors import NumericalAbort
from kggan.optim import EPSILON, AdamState, adam_step


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
        state = AdamState.for_params([p], learning_rate=2e-4, beta1=0.0, beta2=0.9)
        adam_step([p], state, grads=[np.zeros((3, 3))], t=1)
        assert np.array_equal(p.data, before)

    def test_first_step_magnitude_is_learning_rate(self, rng):
        p = Tensor(np.zeros(4))
        state = AdamState.for_params([p], learning_rate=0.05, beta1=0.0, beta2=0.9)
        g = np.full(4, 1.7)
        adam_step([p], state, grads=[g], t=1)
        # bias-corrected ratio g / sqrt(g^2) = sign(g)
        assert np.allclose(np.abs(p.data), 0.05, rtol=1e-6)

    def test_quadratic_trajectory_matches_scalar_reference(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        p = Tensor([1.0])
        state = AdamState.for_params([p], learning_rate=lr, beta1=b1, beta2=b2)
        mine = []
        for t in range(1, 11):
            adam_step([p], state, grads=[2.0 * p.data], t=t)
            mine.append(float(p.data[0]))
        expected = scalar_adam_reference(lambda w: 2.0 * w, 1.0, lr, b1, b2, eps, 10)
        assert np.max(np.abs(np.asarray(mine) - np.asarray(expected))) < 1e-10

    def test_second_moment_nonnegative(self, rng):
        p = Tensor(rng.standard_normal(6))
        state = AdamState.for_params([p], learning_rate=2e-4, beta1=0.0, beta2=0.9)
        for t in range(1, 21):
            adam_step([p], state, grads=[rng.standard_normal(6)], t=t)
            assert np.all(state.second_moment[0] >= 0.0)

    @pytest.mark.parametrize("beta1", [0.0, 0.5])
    def test_state_holds_a_moment_of_each_parameters_shape(self, rng, beta1):
        """``adam_step`` takes the state ``for_params`` built over the same
        list: a zero second moment per parameter, and a first moment too
        unless beta1 = 0."""
        params = [Tensor(rng.standard_normal((3, 2))), Tensor(np.zeros(5)), Tensor(np.zeros((1, 4)))]
        state = AdamState.for_params(params, learning_rate=2e-4, beta1=beta1, beta2=0.9)
        if not beta1:
            assert state.first_moment == []
        for moment in [state.second_moment] + ([state.first_moment] if beta1 else []):
            assert len(moment) == len(params)
            for p, m in zip(params, moment):
                assert m.shape == p.data.shape and not np.any(m)

    def test_second_step_allocates_no_array_of_the_parameters_size(self, rng):
        """The state holds the step's work arrays: a second step on a
        98,304-element float32 parameter, the embedder's first weight at
        the default config, allocates less than one array of its size (the
        finiteness check's bools are a quarter of one)."""
        p = Tensor(rng.standard_normal((768, 128)).astype(np.float32))
        state = AdamState.for_params([p], learning_rate=2e-4, beta1=0.0, beta2=0.9)
        grads = [rng.standard_normal(p.data.shape).astype(np.float32)]
        adam_step([p], state, grads, t=1)
        tracemalloc.start()
        try:
            adam_step([p], state, grads, t=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < p.data.nbytes

    def test_nan_gradient_aborts_naming_parameter(self):
        p = Tensor(np.zeros(2), name="G.w1")
        state = AdamState.for_params([p], learning_rate=2e-4, beta1=0.0, beta2=0.9)
        with pytest.raises(NumericalAbort, match="G.w1"):
            adam_step([p], state, grads=[np.array([np.nan, 0.0])], t=1)

    def test_rejected_step_writes_nothing(self, rng):
        """Every gradient is checked before anything is written: a NaN in
        the last parameter's gradient leaves every parameter and whatever
        moments the state holds (none of the first at beta1 = 0) as they
        were."""
        for beta1 in (0.0, 0.9):
            params = [Tensor(rng.standard_normal(s), name=f"p{i}") for i, s in enumerate([(4, 3), (3,), (2, 2)])]
            state = AdamState.for_params(params, learning_rate=2e-4, beta1=beta1, beta2=0.9)
            for t in range(1, 4):
                adam_step(params, state, grads=[rng.standard_normal(p.data.shape) for p in params], t=t)
            held = [p.data for p in params] + state.first_moment + state.second_moment
            assert len(held) == (3 if beta1 else 2) * len(params)
            before = [a.tobytes() for a in held]
            grads = [rng.standard_normal(p.data.shape) for p in params]
            grads[-1][1, 0] = np.nan
            with pytest.raises(NumericalAbort, match="p2"):
                adam_step(params, state, grads=grads, t=4)
            assert [a.tobytes() for a in held] == before


def old_adam_step(params, moments, grads, learning_rate, beta1, beta2, epsilon=1e-8):
    """The update before scratch arrays, one full-size temporary per
    operation, in 14 passes; it keeps its own ``moments``, a dict of the
    step count "t" and the lists "m" and "v"."""
    t = moments["t"] + 1
    correction1 = 1.0 - beta1**t
    correction2 = 1.0 - beta2**t
    for i, (p, g) in enumerate(zip(params, grads)):
        m = moments["m"][i] * beta1
        m += (1.0 - beta1) * g
        v = moments["v"][i] * beta2
        v += (1.0 - beta2) * (g * g)
        moments["m"][i] = m
        moments["v"][i] = v
        m_hat = m / correction1
        v_hat = v / correction2
        p.data = p.data - learning_rate * m_hat / (np.sqrt(v_hat) + epsilon)
    moments["t"] = t


def assert_bitwise_the_old_update(mine, ref, state, moments, grad_steps):
    """Step ``mine`` through ``adam_step`` and ``ref`` through the old
    update with each list of ``grad_steps``; compare p and v byte for byte,
    and m too where the state keeps one."""
    for t, grads in enumerate(grad_steps, start=1):
        adam_step(mine, state, grads=[g.copy() for g in grads], t=t)
        old_adam_step(ref, moments, grads, state.learning_rate, state.beta1, state.beta2, EPSILON)
    for a, b, v_a, v_b in zip(mine, ref, state.second_moment, moments["v"]):
        assert a.data.tobytes() == b.data.tobytes()
        assert v_a.tobytes() == v_b.tobytes()
    if state.beta1:
        assert len(state.first_moment) == len(mine)
        for m_a, m_b in zip(state.first_moment, moments["m"]):
            assert m_a.tobytes() == m_b.tobytes()
    else:
        assert state.first_moment == []


def fresh_moments(params):
    return {"t": 0, "m": [np.zeros_like(p.data) for p in params], "v": [np.zeros_like(p.data) for p in params]}


@pytest.mark.parametrize("beta1", [0.0, 0.9])
def test_scratch_update_is_bitwise_the_old_update(rng, beta1):
    shapes = [(7, 5), (5,), (3, 4, 2)]
    # parameters of the update's size, so its last bits reach theirs
    mine = [Tensor(1e-3 * rng.standard_normal(s)) for s in shapes]
    ref = [Tensor(p.data.copy()) for p in mine]
    state = AdamState.for_params(mine, learning_rate=3e-3, beta1=beta1, beta2=0.9)
    # +0 and -0 reach the signed-zero paths, tiny values the epsilon and
    # subnormal paths, and a rare huge one a v near the largest double
    scales = np.array([0.0, -0.0, 5e-324, 1e-300, 1e-12, 1.0, 1e150])
    odds = [0.15, 0.15, 0.05, 0.05, 0.1, 0.48, 0.02]
    grad_steps = [
        [rng.standard_normal(s) * rng.choice(scales, size=s, p=odds) for s in shapes] for _ in range(20)
    ]
    assert any((np.abs(g) >= 1e150).any() for grads in grad_steps for g in grads)
    assert any(np.signbit(g[g == 0.0]).any() for grads in grad_steps for g in grads)
    assert_bitwise_the_old_update(mine, ref, state, fresh_moments(ref), grad_steps)


@pytest.mark.parametrize("beta1", [0.0, 0.9])
def test_initialized_parameters_meet_negative_zero_gradients(rng, beta1):
    """The GAN's parameters start from ``uniform_init`` and ``zeros_init``,
    which give +0.0, never -0.0; all -0.0 gradients and then mixed ones
    leave them as the old update does."""
    mine = [uniform_init((6, 4), rng), zeros_init((4,)), uniform_init((4, 1), rng), zeros_init((1,))]
    assert not any(np.signbit(p.data[p.data == 0.0]).any() for p in mine)
    ref = [Tensor(p.data.copy()) for p in mine]
    state = AdamState.for_params(mine, learning_rate=2e-4, beta1=beta1, beta2=0.9)
    shapes = [p.data.shape for p in mine]
    grad_steps = [[np.full(s, -0.0) for s in shapes] for _ in range(3)]
    mixed = [-0.0, 0.0, 1.0]
    grad_steps += [[rng.standard_normal(s) * rng.choice(mixed, size=s) for s in shapes] for _ in range(5)]
    grad_steps += [[np.full(s, -0.0) for s in shapes] for _ in range(3)]
    assert_bitwise_the_old_update(mine, ref, state, fresh_moments(ref), grad_steps)
