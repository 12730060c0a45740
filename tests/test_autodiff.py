"""Tensor arithmetic and reverse-mode gradients against independent oracles."""

import weakref

import numpy as np
import pytest

from kggan import autodiff as ad
from kggan.autodiff import Tensor
from kggan.errors import ContractError, DimensionError
from kggan.gan import CONDITION_SEMANTIC, condition_table, hinge_d_loss
from kggan.regressor import semantic_embedding_loss


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


def square(t):
    """t * t on the tape, the way L_se squares its difference."""
    return ad.mul(t, t)


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
    analytic = ad.backward(loss_fn(), params)
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
        # every op outside no_grad is recorded, constants included; what
        # backward differentiates is decided by the params it is passed
        x, w, b = Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))), Tensor(np.zeros(2))
        with ad.no_grad():
            ad.affine(x, w, b)
        assert len(ad.get_tape()) == 0
        out = ad.affine(x, w, b)
        assert len(ad.get_tape()) == 1
        grad_w, grad_off_tape = ad.backward(ad.tsum(out), [w, Tensor(np.ones(2))])
        assert np.array_equal(grad_w, np.full((2, 2), 2.0)) and grad_off_tape is None


class TestBackward:
    def test_sum_gradient_is_ones(self, rng):
        w = Tensor(rng.standard_normal((3, 5)))
        (grad,) = ad.backward(ad.tsum(w), [w])
        assert np.array_equal(grad, np.ones((3, 5)))

    def test_square_sum_gradient(self):
        # both inputs of mul(w, w) are w: its two gradients accumulate
        w = Tensor([2.0, -3.0])
        (grad,) = ad.backward(ad.tsum(ad.mul(w, w)), [w])
        assert np.array_equal(grad, [4.0, -6.0])

    def test_two_layer_tanh_network_matches_finite_differences(self, rng):
        x = Tensor(rng.standard_normal((4, 3)))
        w1 = Tensor(rng.standard_normal((3, 6)) * 0.5)
        b1 = Tensor(rng.standard_normal(6) * 0.1)
        w2 = Tensor(rng.standard_normal((6, 2)) * 0.5)
        b2 = Tensor(rng.standard_normal(2) * 0.1)

        def loss():
            h = ad.tanh(ad.affine(x, w1, b1))
            return ad.tsum(square(ad.affine(h, w2, b2)))

        assert_close_to_fd(loss, [w1, b1, w2, b2])

    def test_non_scalar_loss_rejected(self):
        w = Tensor([1.0, 2.0])
        with pytest.raises(ContractError):
            ad.backward(square(w), [w])

    def test_empty_tape_rejected(self):
        with pytest.raises(ContractError):
            ad.backward(Tensor([1.0]), [])

    def test_tape_released_as_it_is_replayed(self, rng):
        """backward pops each node before its rule runs and drops each
        output's gradient once passed on: when the first node's rule runs
        the tape is empty, and a later output nothing else holds is freed,
        while one the caller holds is not."""
        x = Tensor(rng.standard_normal((4, 3)))
        w = Tensor(rng.standard_normal((3, 2)))
        held = ad.affine(x, w, Tensor(np.zeros(2)))
        loss = ad.tsum(square(ad.tanh(held)))
        nodes = ad.get_tape().nodes
        later = weakref.ref(nodes[1][0].data)  # the tanh output
        kept = weakref.ref(held.data)
        first_out, inputs, backward_fn = nodes[0]
        seen = []

        def spy(g):
            seen.append((len(ad.get_tape()), later() is None, kept() is None))
            return backward_fn(g)

        nodes[0] = (first_out, inputs, spy)
        (grad,) = ad.backward(loss, [w])
        assert seen == [(0, True, False)]
        assert grad.shape == (3, 2)

    def test_tape_cleared_and_second_pass_matches(self, rng):
        w = Tensor(rng.standard_normal((2, 2)))
        x = Tensor(rng.standard_normal((3, 2)))

        def run():
            (grad,) = ad.backward(ad.tsum(square(ad.affine(x, w, Tensor(np.zeros(2))))), [w])
            return grad

        first = run()
        assert len(ad.get_tape()) == 0
        second = run()
        assert np.array_equal(first, second)

    def test_branching_graph_accumulates(self):
        w = Tensor([3.0])
        y = ad.add(square(w), ad.scale(w, 2.0))  # w^2 + 2w
        (grad,) = ad.backward(ad.tsum(y), [w])
        assert np.allclose(grad, [8.0])


class TestRestrictedBackward:
    def test_products_skipped_for_inputs_without_gradient(self, rng):
        # only w is passed to backward: x, b, s and leaky_relu's slope are
        # on the tape, but no product is computed for them
        x = Tensor(rng.standard_normal((4, 3)))
        w = Tensor(rng.standard_normal((3, 2)))
        b = Tensor(np.zeros(2))
        s = Tensor(rng.standard_normal((4, 2)))
        for op, computed in (
            (lambda: ad.affine(x, w, b), [False, True, False]),
            (lambda: ad.mul(s, ad.affine(x, w, b)), [False, True]),
            (lambda: ad.leaky_relu(ad.affine(x, w, b)), [True, False]),
        ):
            out = op()
            nodes = ad.get_tape().nodes
            node_out, inputs, backward_fn = nodes[-1]
            assert node_out is out
            returned = []

            def spy(g, backward_fn=backward_fn, returned=returned):
                returned.append(backward_fn(g))
                return returned[-1]

            nodes[-1] = (node_out, inputs, spy)
            ad.backward(ad.tsum(out), [w])
            (grads,) = returned
            assert [g is not None for g in grads] == computed

    def test_only_named_params_and_their_dependents_get_gradients(self, rng):
        x = Tensor(rng.standard_normal((5, 3)))
        w1 = Tensor(rng.standard_normal((3, 4)))
        b1 = Tensor(rng.standard_normal(4))
        w2 = Tensor(rng.standard_normal((4, 2)))
        b2 = Tensor(rng.standard_normal(2))

        def loss():
            h = ad.tanh(ad.affine(x, w1, b1))
            return ad.tsum(square(ad.affine(h, w2, b2)))

        full = ad.backward(loss(), [w1, b1, w2, b2])
        first = ad.backward(loss(), [w1, b1])
        assert [g.tobytes() for g in first] == [g.tobytes() for g in full[:2]]
        (second,) = ad.backward(loss(), [w2])
        assert second.tobytes() == full[2].tobytes()
        # an input passed gets its gradient; a tensor off the tape gets none
        grad_x, unreached = ad.backward(loss(), [x, Tensor(np.ones(3))])
        assert grad_x.shape == x.data.shape and np.any(grad_x != 0.0) and unreached is None
        # an intermediate passed keeps its gradient though the pass frees others'
        h = ad.tanh(ad.affine(x, w1, b1))
        (grad_h,) = ad.backward(ad.tsum(square(h)), [h])
        assert np.array_equal(grad_h, 2.0 * h.data)


class TestOps:
    @pytest.mark.parametrize("op", [ad.add, ad.mul])
    def test_unequal_shapes_rejected_naming_both(self, rng, op):
        x = Tensor(rng.standard_normal((5, 4)))
        b = Tensor(rng.standard_normal(4))
        with pytest.raises(DimensionError, match=r"\(5, 4\) and \(4,\)"):
            op(x, b)
        assert not ad.get_tape().nodes

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_scale_by_minus_one_is_negation_bit_for_bit(self, dtype):
        """The hinge losses negate with scale(x, -1.0): x * -1.0 has the
        bits of -x for every value that is not NaN, and so does its
        gradient, g * -1.0 against -g."""
        tiny = np.finfo(dtype).smallest_subnormal
        values = np.array(
            [0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 1.5, -2.75, 3e-7, np.finfo(dtype).max],
            dtype=dtype,
        )
        bits = f"u{values.itemsize}"
        x = Tensor(values.copy())
        out = ad.scale(x, -1.0)
        # the gradient reaching scale is the weights themselves: ones * w
        # (the loss's own value overflows at the largest float, harmlessly)
        with np.errstate(over="ignore"):
            loss = ad.tsum(ad.mul(out, Tensor(values)))
        (grad,) = ad.backward(loss, [x])
        assert out.data.dtype == grad.dtype == dtype
        assert np.array_equal(out.data.view(bits), (-values).view(bits))
        assert np.array_equal(grad.view(bits), (-values).view(bits))

    def test_row_slice_gradient_fills_its_rows_only(self, rng):
        a = Tensor(rng.standard_normal((5, 3)))
        part = ad.row_slice(a, 1, 3)
        weights = rng.standard_normal((2, 3))
        (grad,) = ad.backward(ad.tsum(ad.mul(part, Tensor(weights))), [a])
        assert np.array_equal(part.data, a.data[1:3])
        assert np.array_equal(grad[1:3], weights)
        assert not grad[[0, 3, 4]].any()

    def test_row_slices_of_one_tensor_accumulate(self, rng):
        a = Tensor(rng.standard_normal((4, 3)))
        w_head = rng.standard_normal((3, 3))
        w_tail = rng.standard_normal((2, 3))
        loss = ad.add(
            ad.tsum(ad.mul(ad.row_slice(a, 0, 3), Tensor(w_head))),
            ad.tsum(ad.mul(ad.row_slice(a, 2, 4), Tensor(w_tail))),
        )
        (grad,) = ad.backward(loss, [a])
        expected = np.zeros((4, 3))
        expected[0:3] += w_head
        expected[2:4] += w_tail
        assert np.array_equal(grad, expected)

    @pytest.mark.parametrize("start, stop", [(-1, 2), (2, 2), (3, 1), (0, 5)])
    def test_row_slice_outside_the_rows_rejected(self, rng, start, stop):
        with pytest.raises(DimensionError, match=rf"rows {start}:{stop} outside .*\(4, 3\)"):
            ad.row_slice(Tensor(rng.standard_normal((4, 3))), start, stop)

    def test_sum_axis_backward(self, rng):
        a = Tensor(rng.standard_normal((3, 4)))
        (grad,) = ad.backward(ad.tsum(square(ad.tsum(a, axis=1))), [a])
        with ad.no_grad():
            expected = np.repeat(2.0 * a.data.sum(axis=1)[:, None], 4, axis=1)
        assert np.allclose(grad, expected)

    @pytest.mark.parametrize(
        "op",
        [
            lambda t: ad.relu(t),
            lambda t: ad.leaky_relu(t),
            lambda t: ad.tanh(t),
            lambda t: ad.sigmoid(t),
            lambda t: ad.mul(t, t),
        ],
    )
    def test_elementwise_gradients_match_fd(self, op, rng):
        # offset away from relu's kink so finite differences are valid
        w = Tensor(rng.standard_normal((3, 3)) + 0.31)
        assert_close_to_fd(lambda: ad.tsum(square(op(w))), [w])

    def test_sigmoid_stable_for_large_inputs(self):
        out = ad.sigmoid(Tensor([[-800.0, 800.0]]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0, 0] == 0.0 and out.data[0, 1] == 1.0

    def test_detach_blocks_gradient(self):
        # a tensor rebuilt from another's values, as the D step feeds G's fakes
        w = Tensor([2.0])
        y = Tensor(square(w).data)
        z = ad.mul(Tensor([3.0]), y)
        assert ad.backward(ad.tsum(z), [w]) == [None]

    def test_no_grad_suppresses_recording(self):
        w = Tensor([2.0])
        with ad.no_grad():
            square(w)
        assert len(ad.get_tape()) == 0


# The tape's rules for a difference, a shift by a constant, a square and a
# reshape, as they stood before each became a composition of the rules
# that stay; kept to check the compositions against them
def old_sub(a, b):
    return ad._make(a.data - b.data, (a, b), lambda g: (g, -g))


def old_add_scalar(a, s):
    return ad._make(a.data + float(s), (a,), lambda g: (g,))


def old_square(a):
    return ad._make(a.data * a.data, (a,), lambda g: (g * 2.0 * a.data,))


def old_reshape(a, shape):
    return ad._make(a.data.reshape(tuple(shape)), (a,), lambda g: (g.reshape(a.data.shape),))


# The tape's rules for a product and a leaky ReLU, as they stood before
# the projection became an affine over a zero bias and the leaky ReLU a
# mul by its slope
def old_matmul(a, b):
    return ad._make(a.data @ b.data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def old_leaky_relu(a):
    one, leak = np.asarray([1.0, ad.LEAK], dtype=a.data.dtype)
    slope = np.where(a.data > 0.0, one, leak)
    return ad._make(a.data * slope, (a,), lambda g: (g * slope,))


def old_semantic_embedding_loss(predictions, targets):
    diff = old_sub(predictions, targets)
    return ad.scale(ad.tsum(old_square(diff)), 1.0 / predictions.data.shape[0])


def old_hinge_d_loss(real_scores, fake_scores):
    real_term = ad.tmean(ad.relu(old_add_scalar(ad.scale(real_scores, -1.0), 1.0)))
    fake_term = ad.tmean(ad.relu(old_add_scalar(fake_scores, 1.0)))
    return ad.add(real_term, fake_term)


def edge_values(dtype):
    """Signed zeros, subnormals, the smallest normal, ordinary values, a
    quarter of the largest float and the infinities, in ``dtype``."""
    info = np.finfo(dtype)
    tiny = info.smallest_subnormal
    values = [0.0, -0.0, tiny, -3 * tiny, info.smallest_normal, 1.0, -1.0, 0.5, -2.75, 3e-7, 1e4]
    return np.array(values + [info.max / 4, np.inf, -np.inf], dtype=dtype)


def forward_and_grads(build, inputs, weights):
    """``build(*inputs)`` and the gradients of sum(out * weights) for the
    inputs: the gradient reaching the output is ``weights`` itself. The
    edge values overflow and make NaN on purpose, so nothing warns."""
    with np.errstate(all="ignore"):
        out = build(*inputs)
        loss = ad.tsum(ad.mul(out, Tensor(weights)))
        return out.data, ad.backward(loss, list(inputs))


def assert_same_bits(got, want):
    """The same bits, with NaN (from inf - inf or inf * 0) where and only
    where ``want`` has it, whatever its payload."""
    nan = np.isnan(want)
    assert got.dtype == want.dtype and np.array_equal(np.isnan(got), nan)
    view = f"u{want.itemsize}"
    assert np.array_equal(got.view(view)[~nan], want.view(view)[~nan])


class TestCompositionsMatchTheDeletedRules:
    """Each composition that replaced a deleted rule against that rule, on
    float32 and float64 edge values: forward values and gradients bit for
    bit, but for two exceptions each test below names."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_difference_with_a_constant_is_add_of_its_negation(self, dtype):
        # a - t is a + (-t) by IEEE definition, and negation is exact
        a, t = np.meshgrid(edge_values(dtype), edge_values(dtype), indexing="ij")
        w = t[::-1].copy()
        old, (old_grad,) = forward_and_grads(lambda x: old_sub(x, Tensor(t)), [Tensor(a)], w)
        new, (new_grad,) = forward_and_grads(lambda x: ad.add(x, Tensor(-t)), [Tensor(a)], w)
        assert_same_bits(new, old)
        assert_same_bits(new_grad, old_grad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_shift_by_one_is_add_of_ones(self, dtype):
        # a python float is weak: x + 1.0 computes in x's dtype, as x + ones
        x = np.concatenate([edge_values(dtype), -edge_values(dtype)])
        w = x[::-1].copy()
        old, (old_grad,) = forward_and_grads(lambda t: old_add_scalar(t, 1.0), [Tensor(x)], w)
        ones = Tensor(np.ones_like(x))
        new, (new_grad,) = forward_and_grads(lambda t: ad.add(t, ones), [Tensor(x)], w)
        assert_same_bits(new, old)
        assert_same_bits(new_grad, old_grad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_product_with_itself_is_the_square_but_where_the_product_is_subnormal(self, rng, dtype):
        """mul(x, x)'s gradient is g*x + g*x, the square's (2g)*x: doubling
        is exact and commutes with rounding, unless g*x is subnormal (at
        most the smallest normal in magnitude). There the two can differ,
        and they do at g = 0.5, x = -3 times the smallest subnormal. (They
        would differ too where 2g overflows and g*x does not; no g here
        exceeds a quarter of the largest float.)"""
        edges = edge_values(dtype)
        x_edges, g_edges = np.meshgrid(edges, edges, indexing="ij")
        x = np.concatenate([x_edges.ravel(), rng.standard_normal(10_000).astype(dtype)])
        g = np.concatenate([g_edges.ravel(), rng.standard_normal(10_000).astype(dtype)])
        old, (old_grad,) = forward_and_grads(old_square, [Tensor(x)], g)
        new, (new_grad,) = forward_and_grads(lambda t: ad.mul(t, t), [Tensor(x)], g)
        assert_same_bits(new, old)
        with np.errstate(all="ignore"):
            product = g * x
        subnormal = (g != 0) & (x != 0) & (np.abs(product) <= np.finfo(dtype).smallest_normal)
        assert_same_bits(new_grad[~subnormal], old_grad[~subnormal])
        differ = new_grad.view(f"u{x.itemsize}") != old_grad.view(f"u{x.itemsize}")
        assert differ[subnormal].any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sum_over_one_column_is_the_reshape_but_for_negative_zero(self, dtype):
        """tsum(x, axis=1) of an [n, 1] column gives back each element, as
        reshape to [n] did, except -0.0, which comes back +0.0 (the sum
        starts from +0.0). The gradients are the same bits."""
        column = np.concatenate([edge_values(dtype), -edge_values(dtype)])[:, None]
        w = column[::-1, 0].copy()
        old, (old_grad,) = forward_and_grads(lambda t: old_reshape(t, (len(column),)), [Tensor(column)], w)
        new, (new_grad,) = forward_and_grads(lambda t: ad.tsum(t, axis=1), [Tensor(column)], w)
        negative_zero = (column[:, 0] == 0) & np.signbit(column[:, 0])
        assert negative_zero.sum() == 2
        assert_same_bits(new[~negative_zero], old[~negative_zero])
        assert not np.signbit(new[negative_zero]).any() and np.signbit(old[negative_zero]).all()
        assert_same_bits(new_grad, old_grad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_losses_are_the_old_losses_bit_for_bit(self, rng, dtype):
        """L_se and the hinge D loss, values and gradients, against the
        same losses built from the deleted rules: predictions that equal
        their targets, signed zeros and scores on the hinge."""
        predictions = rng.uniform(0.0, 1.0, size=(12, 8)).astype(dtype)
        targets = rng.uniform(0.0, 1.0, size=(12, 8)).astype(dtype)
        targets[0] = predictions[0]
        predictions[1, :4], targets[1, :4] = -0.0, [0.0, -0.0, 0.0, -0.0]
        scores = rng.standard_normal((2, 12)).astype(dtype)
        above_one = np.nextafter(dtype(1), dtype(2))
        scores[:, :6] = [0.0, -0.0, 1.0, -1.0, above_one, -above_one]
        for old_loss, new_loss, inputs, constant in (
            (old_semantic_embedding_loss, semantic_embedding_loss, [predictions], [targets]),
            (old_hinge_d_loss, hinge_d_loss, list(scores), []),
        ):
            results = []
            for loss_fn in (old_loss, new_loss):
                tensors = [Tensor(x.copy()) for x in inputs]
                loss = loss_fn(*tensors, *(Tensor(c) for c in constant))
                results.append([loss.data, *ad.backward(loss, tensors)])
            for new, old in zip(results[1], results[0]):
                assert_same_bits(new, old)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leaky_relu_is_one_mul_by_its_slope(self, rng, dtype):
        """leaky_relu is mul(a, slope): the forward a * slope and the
        gradient g * slope are the deleted rule's own expressions, and it
        records one mul node, with no backward of its own."""
        edges = edge_values(dtype)
        x_edges, g_edges = np.meshgrid(edges, edges, indexing="ij")
        x = np.concatenate([x_edges.ravel(), -x_edges.ravel(), rng.standard_normal(1000).astype(dtype)])
        g = np.concatenate([g_edges.ravel(), g_edges.ravel(), rng.standard_normal(1000).astype(dtype)])
        old, (old_grad,) = forward_and_grads(old_leaky_relu, [Tensor(x)], g)
        new, (new_grad,) = forward_and_grads(ad.leaky_relu, [Tensor(x)], g)
        assert_same_bits(new, old)
        assert_same_bits(new_grad, old_grad)
        ad.leaky_relu(Tensor(x))
        ((_, _, backward_fn),) = ad.get_tape().nodes
        assert backward_fn.__qualname__ == "mul.<locals>.back"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_projection_is_an_affine_over_a_bias_of_negative_zero(self, rng, dtype):
        """v @ V is affine(v, V, -0.0), forward and both gradients, at the
        discriminator's shapes: one-hot and whitened condition rows, 16 and
        32 of them, 64 features. -0.0 added to any float gives it back,
        +0.0 too, where a bias of +0.0 would turn -0.0 into +0.0. The rows
        include one of -0.0 and a one-hot row that picks a -0.0 weight row,
        and V's columns are of one sign each, so every term of those two
        rows' products is -0.0: the bits match whatever sign a BLAS gives
        their zero sums."""
        edges = edge_values(dtype)
        assert_same_bits(edges + dtype(-0.0), edges)
        assert not np.array_equal(np.signbit(edges + dtype(0.0)), np.signbit(edges))
        feat_dim = 64
        whitened = condition_table(CONDITION_SEMANTIC, rng.uniform(0.0, 1.0, size=(12, 64)))
        for table in (np.eye(12), whitened):
            cond = table.astype(dtype)
            weight = rng.uniform(0.1, 1.0, size=(cond.shape[1], feat_dim)).astype(dtype)
            weight[:, feat_dim // 2 :] *= -1
            weight[3] = -0.0
            bias = Tensor(np.full(feat_dim, -0.0, dtype))
            for rows in (16, 32):
                v = cond[rng.integers(0, len(cond), rows)]
                v[0] = -0.0
                v[1] = np.eye(cond.shape[1], dtype=dtype)[3]
                g = rng.standard_normal((rows, feat_dim)).astype(dtype)
                inputs = (v, weight)
                old, old_grads = forward_and_grads(old_matmul, [Tensor(x) for x in inputs], g)
                new, new_grads = forward_and_grads(
                    lambda a, w: ad.affine(a, w, bias), [Tensor(x) for x in inputs], g
                )
                assert not old[:2].any()
                assert_same_bits(new, old)
                for new_grad, old_grad in zip(new_grads, old_grads):
                    assert_same_bits(new_grad, old_grad)


# every operation, as (name, build): build takes two [3, 4] tensors and a
# [4, 2] one, all of one dtype, and returns the operation's output
EVERY_OP = [
    ("add", lambda a, b, w: ad.add(a, b)),
    ("mul", lambda a, b, w: ad.mul(a, b)),
    ("scale", lambda a, b, w: ad.scale(a, 0.3)),
    ("affine", lambda a, b, w: ad.affine(a, w, Tensor(b.data[0, :2]))),
    ("relu", lambda a, b, w: ad.relu(a)),
    ("leaky_relu", lambda a, b, w: ad.leaky_relu(a)),
    ("tanh", lambda a, b, w: ad.tanh(a)),
    ("sigmoid", lambda a, b, w: ad.sigmoid(a)),
    ("tsum", lambda a, b, w: ad.tsum(a)),
    ("tsum_axis", lambda a, b, w: ad.tsum(a, axis=1)),
    ("tmean", lambda a, b, w: ad.tmean(a)),
    ("row_slice", lambda a, b, w: ad.row_slice(a, 1, 3)),
]


class TestDtype:
    """A float32 tensor stays float32 and a float64 one float64 through
    every operation, forward and backward; anything else becomes float64."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("name, build", EVERY_OP, ids=[name for name, _ in EVERY_OP])
    def test_operation_keeps_its_inputs_dtype(self, rng, dtype, name, build):
        a, b = (Tensor(rng.standard_normal((3, 4)).astype(dtype)) for _ in range(2))
        w = Tensor(rng.standard_normal((4, 2)).astype(dtype))
        out = build(a, b, w)
        grads = [g for g in ad.backward(ad.tsum(square(out)), [a, b, w]) if g is not None]
        assert out.data.dtype == dtype
        assert grads and {g.dtype for g in grads} == {np.dtype(dtype)}

    @pytest.mark.parametrize(
        "data, dtype",
        [
            (np.ones((2, 3), dtype=np.float32), np.float32),
            ([1.0, 2.0], np.float64),
            (np.arange(3), np.float64),
            (np.ones(2, dtype=np.float16), np.float64),
            (np.float64(2.0), np.float64),
        ],
        ids=["float32", "list", "int", "float16", "float64_scalar"],
    )
    def test_float32_is_kept_and_anything_else_becomes_float64(self, data, dtype):
        assert Tensor(data).data.dtype == dtype


class TestLayerTypeGradients:
    """Central finite differences over 100 random probes per layer type."""

    N_PROBES = 100

    def _probe(self, rng, build_loss, n_params):
        failures = 0
        for _ in range(self.N_PROBES):
            params = [
                Tensor(rng.standard_normal(shape) * 0.7)
                for shape in n_params
            ]
            loss_fn = build_loss(rng, params)
            analytic = ad.backward(loss_fn(), params)
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
            return lambda: ad.tsum(square(ad.affine(x, params[0], params[1])))

        self._probe(rng, build, [(3, 2), (2,)])

    def test_tanh(self, rng):
        def build(rng, params):
            return lambda: ad.tsum(square(ad.tanh(params[0])))

        self._probe(rng, build, [(2, 3)])

    def test_leaky_relu(self, rng):
        def build(rng, params):
            return lambda: ad.tsum(square(ad.leaky_relu(params[0])))

        self._probe(rng, build, [(2, 3)])

    def test_squared_error(self, rng):
        def build(rng, params):
            target = Tensor(rng.standard_normal((2, 3)))
            return lambda: semantic_embedding_loss(params[0], target)

        self._probe(rng, build, [(2, 3)])

    def test_hinge_terms(self, rng):
        def build(rng, params):
            # keep scores away from the hinge kink at +-1
            return lambda: hinge_d_loss(ad.scale(params[0], 0.25), ad.scale(params[1], 0.25))

        self._probe(rng, build, [(4,), (4,)])


class TestDeterminism:
    def test_bit_identical_training_step(self):
        def run():
            rng = np.random.default_rng(7)
            w = ad.uniform_init((4, 4), rng)
            x = Tensor(rng.standard_normal((2, 4)))
            out = ad.tsum(square(ad.tanh(ad.affine(x, w, Tensor(np.zeros(4))))))
            (grad,) = ad.backward(out, [w])
            return w.data.tobytes(), grad.tobytes()

        assert run() == run()

    def test_uniform_init_bounds(self, rng):
        w = ad.uniform_init((30, 50), rng)
        bound = np.sqrt(6.0 / 80.0)
        assert np.max(np.abs(w.data)) <= bound
