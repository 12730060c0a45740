"""Tensor arithmetic and reverse-mode gradients against independent oracles."""

import numpy as np
import pytest

from kggan import autodiff as ad
from kggan.autodiff import Tensor
from kggan.errors import ContractError, DimensionError


def triple_loop_matmul(a, b):
    """Naive O(n^3) reference, no vectorized shortcuts."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def finite_difference(f, params, h=1e-5):
    """Central finite differences of a scalar function of Tensor params."""
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            hi = f()
            flat[i] = keep - h
            lo = f()
            flat[i] = keep
            gflat[i] = (hi - lo) / (2.0 * h)
        grads.append(g)
    return grads


def assert_close_to_fd(loss_fn, params, rtol=1e-4):
    ad.backward(loss_fn())
    analytic = [p.grad.copy() for p in params]
    with ad.no_grad():
        fd = finite_difference(lambda: loss_fn().item(), params)
    for a, n in zip(analytic, fd):
        denom = np.maximum(np.abs(n), 1e-8)
        assert np.max(np.abs(a - n) / denom) < rtol


class TestAffine:
    def test_identity_weight(self):
        out = ad.affine(
            Tensor([[1.0, 2.0]]), Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([0.0, 0.0])
        )
        assert np.array_equal(out.data, [[1.0, 2.0]])

    def test_known_sum(self):
        out = ad.affine(Tensor([[1.0, 1.0]]), Tensor([[2.0], [3.0]]), Tensor([1.0]))
        assert np.array_equal(out.data, [[6.0]])

    def test_matches_triple_loop_oracle(self, rng):
        x = rng.standard_normal((3, 4))
        w = rng.standard_normal((4, 2))
        b = rng.standard_normal(2)
        out = ad.affine(Tensor(x), Tensor(w), Tensor(b))
        expected = triple_loop_matmul(x, w) + b
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(1, 3\).*\(4, 2\)"):
            ad.affine(Tensor(np.zeros((1, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))

    def test_records_on_tape_only_when_grad_needed(self):
        x = Tensor(np.ones((2, 2)))
        w = Tensor(np.ones((2, 2)))
        ad.affine(x, w, Tensor(np.zeros(2)))
        assert len(ad.get_tape()) == 0
        w.requires_grad = True
        ad.affine(x, w, Tensor(np.zeros(2)))
        assert len(ad.get_tape()) == 1


class TestBackward:
    def test_sum_gradient_is_ones(self, rng):
        w = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        ad.backward(ad.tsum(w))
        assert np.array_equal(w.grad, np.ones((3, 5)))

    def test_square_sum_gradient(self):
        w = Tensor([2.0, -3.0], requires_grad=True)
        ad.backward(ad.tsum(ad.square(w)))
        assert np.array_equal(w.grad, [4.0, -6.0])

    def test_two_layer_tanh_network_matches_finite_differences(self, rng):
        x = Tensor(rng.standard_normal((4, 3)))
        w1 = Tensor(rng.standard_normal((3, 6)) * 0.5, requires_grad=True)
        b1 = Tensor(rng.standard_normal(6) * 0.1, requires_grad=True)
        w2 = Tensor(rng.standard_normal((6, 2)) * 0.5, requires_grad=True)
        b2 = Tensor(rng.standard_normal(2) * 0.1, requires_grad=True)

        def loss():
            h = ad.tanh(ad.affine(x, w1, b1))
            return ad.tsum(ad.square(ad.affine(h, w2, b2)))

        assert_close_to_fd(loss, [w1, b1, w2, b2])

    def test_non_scalar_loss_rejected(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            ad.backward(ad.square(w))

    def test_empty_tape_rejected(self):
        with pytest.raises(ContractError):
            ad.backward(Tensor([1.0]))

    def test_tape_cleared_and_second_pass_matches(self, rng):
        w = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        x = Tensor(rng.standard_normal((3, 2)))

        def run():
            ad.backward(ad.tsum(ad.square(ad.matmul(x, w))))
            return w.grad.copy()

        first = run()
        assert len(ad.get_tape()) == 0
        second = run()
        assert np.array_equal(first, second)

    def test_branching_graph_accumulates(self):
        w = Tensor([3.0], requires_grad=True)
        y = ad.add(ad.square(w), ad.scale(w, 2.0))  # w^2 + 2w
        ad.backward(ad.tsum(y))
        assert np.allclose(w.grad, [8.0])


class TestRestrictedBackward:
    def test_products_skipped_for_inputs_without_gradient(self, rng):
        x = Tensor(rng.standard_normal((4, 3)))
        w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        b = Tensor(np.zeros(2))
        s = Tensor(rng.standard_normal((4, 2)))
        for op in (
            lambda: ad.affine(x, w, b),
            lambda: ad.matmul(x, w),
            lambda: ad.mul(s, ad.matmul(x, w)),
        ):
            out = op()
            node_out, inputs, backward_fn = ad.get_tape().nodes[-1]
            assert node_out is out
            grads = backward_fn(np.ones_like(out.data))
            assert [g is None for g in grads] == [not t.requires_grad for t in inputs]
        ad.get_tape().clear()

    def test_only_named_params_and_their_dependents_get_gradients(self, rng):
        x = Tensor(rng.standard_normal((5, 3)))
        w1 = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b1 = Tensor(rng.standard_normal(4), requires_grad=True)
        w2 = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        b2 = Tensor(rng.standard_normal(2), requires_grad=True)

        def loss():
            h = ad.tanh(ad.affine(x, w1, b1))
            return ad.tsum(ad.square(ad.affine(h, w2, b2)))

        ad.backward(loss())
        full = [w1.grad.copy(), b1.grad.copy()]
        ad.backward(loss(), [w1, b1])
        assert np.array_equal(w1.grad, full[0]) and np.array_equal(b1.grad, full[1])
        assert w2.grad is None and b2.grad is None
        ad.backward(loss(), [w2])
        assert w1.grad is None and b1.grad is None and b2.grad is None
        assert w2.grad is not None


class TestOps:
    def test_bias_broadcast_gradient(self, rng):
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        x = Tensor(rng.standard_normal((5, 4)))
        ad.backward(ad.tsum(ad.add(x, b)))
        assert np.allclose(b.grad, np.full(4, 5.0))

    def test_concat_splits_gradient(self, rng):
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        joined = ad.concat([a, b], axis=1)
        weights = rng.standard_normal((2, 5))
        ad.backward(ad.tsum(ad.mul(joined, Tensor(weights))))
        assert np.allclose(a.grad, weights[:, :3])
        assert np.allclose(b.grad, weights[:, 3:])

    def test_sum_axis_backward(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        ad.backward(ad.tsum(ad.square(ad.tsum(a, axis=1))))
        with ad.no_grad():
            expected = np.repeat(2.0 * a.data.sum(axis=1)[:, None], 4, axis=1)
        assert np.allclose(a.grad, expected)

    @pytest.mark.parametrize(
        "op",
        [
            lambda t: ad.relu(t),
            lambda t: ad.leaky_relu(t, 0.1),
            lambda t: ad.tanh(t),
            lambda t: ad.sigmoid(t),
            lambda t: ad.square(t),
        ],
    )
    def test_elementwise_gradients_match_fd(self, op, rng):
        # offset away from relu's kink so finite differences are valid
        w = Tensor(rng.standard_normal((3, 3)) + 0.31, requires_grad=True)
        assert_close_to_fd(lambda: ad.tsum(ad.square(op(w))), [w])

    def test_sigmoid_stable_for_large_inputs(self):
        out = ad.sigmoid(Tensor([[-800.0, 800.0]]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0, 0] == 0.0 and out.data[0, 1] == 1.0

    def test_detach_blocks_gradient(self):
        # a tensor rebuilt from another's values, as the D step feeds G's fakes
        w = Tensor([2.0], requires_grad=True)
        y = Tensor(ad.square(w).data, _validate=False)
        z = ad.mul(Tensor([3.0], requires_grad=True), y)
        ad.backward(ad.tsum(z))
        assert w.grad is None

    def test_no_grad_suppresses_recording(self):
        w = Tensor([2.0], requires_grad=True)
        with ad.no_grad():
            out = ad.square(w)
        assert not out.requires_grad
        assert len(ad.get_tape()) == 0

    def test_non_finite_input_rejected(self):
        with pytest.raises(ContractError):
            Tensor([np.nan, 1.0])


class TestLayerTypeGradients:
    """Central finite differences over 100 random probes per layer type."""

    N_PROBES = 100

    def _probe(self, rng, build_loss, n_params):
        failures = 0
        for _ in range(self.N_PROBES):
            params = [
                Tensor(rng.standard_normal(shape) * 0.7, requires_grad=True)
                for shape in n_params
            ]
            loss_fn = build_loss(rng, params)
            ad.backward(loss_fn())
            analytic = [p.grad.copy() for p in params]
            with ad.no_grad():
                fd = finite_difference(lambda: loss_fn().item(), params)
            for a, n in zip(analytic, fd):
                denom = np.maximum(np.abs(n), 1e-6)
                if np.max(np.abs(a - n) / denom) >= 1e-4:
                    failures += 1
        assert failures == 0

    def test_affine(self, rng):
        def build(rng, params):
            x = Tensor(rng.standard_normal((2, 3)))
            return lambda: ad.tsum(ad.square(ad.affine(x, params[0], params[1])))

        self._probe(rng, build, [(3, 2), (2,)])

    def test_tanh(self, rng):
        def build(rng, params):
            return lambda: ad.tsum(ad.square(ad.tanh(params[0])))

        self._probe(rng, build, [(2, 3)])

    def test_leaky_relu(self, rng):
        def build(rng, params):
            return lambda: ad.tsum(ad.square(ad.leaky_relu(params[0], 0.1)))

        self._probe(rng, build, [(2, 3)])

    def test_squared_error(self, rng):
        def build(rng, params):
            target = Tensor(rng.standard_normal((2, 3)))
            return lambda: ad.tsum(ad.square(ad.sub(params[0], target)))

        self._probe(rng, build, [(2, 3)])

    def test_hinge_terms(self, rng):
        def build(rng, params):
            # keep scores away from the hinge kink at +-1
            return lambda: ad.add(
                ad.tmean(ad.relu(ad.add_scalar(ad.neg(ad.scale(params[0], 0.25)), 1.0))),
                ad.tmean(ad.relu(ad.add_scalar(ad.scale(params[1], 0.25), 1.0))),
            )

        self._probe(rng, build, [(4,), (4,)])


class TestDeterminism:
    def test_bit_identical_training_step(self):
        def run():
            rng = np.random.default_rng(7)
            w = ad.uniform_init((4, 4), rng)
            x = Tensor(rng.standard_normal((2, 4)))
            out = ad.tsum(ad.square(ad.tanh(ad.matmul(x, w))))
            ad.backward(out)
            return w.data.tobytes(), w.grad.tobytes()

        assert run() == run()

    def test_uniform_init_bounds(self, rng):
        w = ad.uniform_init((30, 50), rng)
        bound = np.sqrt(6.0 / 80.0)
        assert np.max(np.abs(w.data)) <= bound
        assert w.requires_grad
