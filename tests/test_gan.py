"""GAN forwards, the three loss families, and the training loop."""

import re
from pathlib import Path

import numpy as np
import pytest

from kggan import autodiff as ad
from kggan import cli, gan
from kggan import semantics as sem
from kggan import synthdata as sd
from kggan.autodiff import Tensor
from kggan.config import ExperimentConfig
from kggan.errors import ContractError, DimensionError, NumericalAbort
from kggan.checkpoint import load_checkpoint, save_checkpoint
from kggan.hashing import fnv1a_64
from kggan.gan import (
    GanModel,
    discriminator_forward,
    generator_forward,
    hinge_d_loss,
    hinge_g_loss,
    load_gan,
    sample_images,
    save_gan,
)
from kggan.regressor import (
    RegressorModel,
    extract_features,
    semantic_embedding_loss,
    train_embedder,
)

IMG = 8
EMB = 16
Z = 8


def params_hash(arrays) -> int:
    """Order-sensitive FNV-1a content hash of arrays, each widened to
    float64 (the golden file's ``params`` line)."""
    h = 0xCBF29CE484222325
    for arr in arrays:
        h ^= fnv1a_64(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def train(model, dataset, split, cond, embeddings, embedder, config):
    """A fresh ``gan.train`` run, as ``cli.cmd_train`` starts one: new
    optimizers and an empty log."""
    opt_g, opt_d = gan.new_optimizers(model, config)
    return gan.train(model, dataset, split, cond, embeddings, embedder, config, opt_g, opt_d, [])


def log_text(log, path, header_lines=()):
    """The metric log as the CLI writes it, read back from ``path``."""
    cli._write_table(path, header_lines, gan.METRIC_COLUMNS, log)
    return path.read_text(encoding="utf-8")


def mini_model(condition_mode="semantic_embedding", cond_dim=EMB, seed=3):
    return GanModel(
        image_size=IMG,
        cond_dim=cond_dim,
        condition_mode=condition_mode,
        rng=np.random.default_rng(seed),
        z_dim=Z,
        g_hidden=32,
        d_hidden=32,
        feat_dim=16,
    )


@pytest.fixture(scope="module")
def mini_data():
    """(specs, dataset, split, embeddings, embedder). The semantic runs here
    condition on the raw table, ``cond = embeddings``, the unwhitened run
    the golden logs recorded; the CLI whitens it (``gan.condition_table``)."""
    specs = sd.make_category_specs(6)
    dataset = sd.build_dataset(specs, images_per_category=10, image_size=IMG, seed=21)
    split = sd.make_split([s.id for s in specs], n_unseen=2, seed=4)
    embeddings = sem.build_embeddings(specs, dim=EMB)
    embedder = RegressorModel(IMG, EMB, np.random.default_rng(9))
    return specs, dataset, split, embeddings, embedder


def mini_config(**kw):
    defaults = dict(
        lambda_se=0.1,
        gan_iterations=30,
        batch_size=8,
        gan_seed=11,
        gan_lr=2e-4,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestGanModel:
    @pytest.mark.parametrize("mode, cond_dim", [("semantic_embedding", EMB), ("one_hot", 6)])
    def test_each_spectral_u_is_a_unit_vector_over_its_weights_rows(self, mode, cond_dim):
        """The power step takes each ``u`` as the model built it: one
        float32 unit vector per spectral weight, as long as its rows."""
        model = mini_model(condition_mode=mode, cond_dim=cond_dim)
        assert set(model.spectral_u) == {w.name for w in model.spectral_weights()}
        for w in model.spectral_weights():
            u = model.spectral_u[w.name]
            assert u.shape == (w.data.shape[0],) and u.dtype == np.float32, w.name
            assert abs(np.linalg.norm(u.astype(np.float64)) - 1.0) < 1e-6, w.name


class TestGeneratorForward:
    def test_output_range(self, rng):
        model = mini_model()
        z = Tensor(rng.standard_normal((4, Z)))
        v = Tensor(rng.uniform(0, 1, size=(4, EMB)))
        out = generator_forward(model, z, v)
        assert out.data.shape == (4, 3 * IMG * IMG)
        assert out.data.min() >= -1.0 and out.data.max() <= 1.0

    def test_deterministic(self, rng):
        model = mini_model()
        z = Tensor(rng.standard_normal((2, Z)))
        v = Tensor(rng.uniform(0, 1, size=(2, EMB)))
        a = generator_forward(model, z, v)
        b = generator_forward(model, z, v)
        assert np.array_equal(a.data, b.data)

    def test_condition_dim_mismatch(self, rng):
        model = mini_model()
        with pytest.raises(DimensionError):
            generator_forward(
                model, Tensor(rng.standard_normal((2, Z))), Tensor(np.zeros((2, EMB + 1)))
            )

    def test_trained_model_separates_conditions(self, mini_data):
        _, dataset, split, embeddings, embedder = mini_data
        model = mini_model()
        config = mini_config(gan_iterations=150)
        train(model, dataset, split, embeddings, embeddings, embedder, config)
        rng = np.random.default_rng(0)
        z = Tensor(rng.standard_normal((1, Z)))
        ids = sorted(split.seen_ids)[:2]
        with ad.no_grad():
            a = generator_forward(model, z, Tensor(embeddings[ids[0]][None]))
            b = generator_forward(model, z, Tensor(embeddings[ids[1]][None]))
        assert np.max(np.abs(a.data - b.data)) > 1e-3


class TestDiscriminatorForward:
    def test_zero_projection_matrix_ignores_condition(self, rng):
        model = mini_model()
        model.v_proj.data[:] = 0.0
        model.refresh_spectral()
        x = Tensor(rng.uniform(-1, 1, size=(3, 3 * IMG * IMG)))
        s1 = discriminator_forward(model, x, Tensor(rng.uniform(0, 1, size=(3, EMB))))
        s2 = discriminator_forward(model, x, Tensor(rng.uniform(0, 1, size=(3, EMB))))
        assert np.allclose(s1.data, s2.data)

    def test_zero_condition_reduces_to_unconditional_head(self, rng):
        model = mini_model()
        model.refresh_spectral()
        x = Tensor(rng.uniform(-1, 1, size=(2, 3 * IMG * IMG)))
        v0 = Tensor(np.zeros((2, EMB)))
        scores = discriminator_forward(model, x, v0)
        # independent recomputation of psi(phi(x)) with normalized weights
        from kggan.spectral import spectral_normalize

        w1 = spectral_normalize(model.dw1, model.sigma["D.w1"]).data
        w2 = spectral_normalize(model.dw2, model.sigma["D.w2"]).data
        psi_w = spectral_normalize(model.psi_w, model.sigma["D.psi_w"]).data
        flat = x.data
        h = np.where(flat @ w1 + model.db1.data > 0, flat @ w1 + model.db1.data, 0.1 * (flat @ w1 + model.db1.data))
        phi = np.where(h @ w2 + model.db2.data > 0, h @ w2 + model.db2.data, 0.1 * (h @ w2 + model.db2.data))
        expected = (phi @ psi_w)[:, 0] + model.psi_b.data[0]
        assert np.max(np.abs(scores.data - expected)) < 1e-12

    def test_matches_projection_formula_oracle(self, rng):
        model = mini_model()
        model.refresh_spectral()
        x = Tensor(rng.uniform(-1, 1, size=(4, 3 * IMG * IMG)))
        v = Tensor(rng.uniform(0, 1, size=(4, EMB)))
        scores = discriminator_forward(model, x, v)

        from kggan.spectral import spectral_normalize

        w1 = spectral_normalize(model.dw1, model.sigma["D.w1"]).data
        w2 = spectral_normalize(model.dw2, model.sigma["D.w2"]).data
        psi_w = spectral_normalize(model.psi_w, model.sigma["D.psi_w"]).data
        v_proj = spectral_normalize(model.v_proj, model.sigma["D.v_proj"]).data
        flat = x.data
        pre1 = flat @ w1 + model.db1.data
        h = np.where(pre1 > 0, pre1, 0.1 * pre1)
        pre2 = h @ w2 + model.db2.data
        phi = np.where(pre2 > 0, pre2, 0.1 * pre2)
        expected = (phi @ psi_w)[:, 0] + model.psi_b.data[0] + np.sum((v.data @ v_proj) * phi, axis=1)
        assert np.max(np.abs(scores.data - expected)) < 1e-12

    def test_image_batch_is_not_rows(self):
        """The networks take [b, 3*S*S] rows only; a [b, 3, S, S] batch is a
        DimensionError naming both shapes, as a row of another width is."""
        model = mini_model()
        model.refresh_spectral()
        v = Tensor(np.zeros((2, EMB)))
        for shape in ((2, 3, IMG, IMG), (2, 3 * IMG * IMG + 1)):
            with pytest.raises(DimensionError, match=re.escape(f"input {shape} vs weight (192, 32)")):
                discriminator_forward(model, Tensor(np.zeros(shape)), v)

    def test_condition_dim_mismatch(self, rng):
        """A condition of another width fails in the projection's affine,
        which names both shapes."""
        model = mini_model()
        model.refresh_spectral()
        x = Tensor(rng.uniform(-1, 1, size=(2, 3 * IMG * IMG)))
        with pytest.raises(DimensionError, match=re.escape(f"input (2, {EMB + 1}) vs weight ({EMB}, 16)")):
            discriminator_forward(model, x, Tensor(np.zeros((2, EMB + 1))))


class TestHingeLosses:
    def test_d_loss_satisfied_margins(self):
        loss = hinge_d_loss(Tensor([1.0]), Tensor([-1.0]))
        assert loss.item() == 0.0

    def test_d_loss_zero_scores(self):
        assert hinge_d_loss(Tensor([0.0]), Tensor([0.0])).item() == 2.0

    def test_d_loss_matches_elementwise_oracle(self, rng):
        real = rng.standard_normal(32)
        fake = rng.standard_normal(32)
        got = hinge_d_loss(Tensor(real), Tensor(fake)).item()
        expected = np.mean(np.maximum(0.0, 1.0 - real)) + np.mean(np.maximum(0.0, 1.0 + fake))
        assert abs(got - expected) < 1e-12

    def test_g_loss_zeros(self):
        assert hinge_g_loss(Tensor([0.0, 0.0])).item() == 0.0

    def test_g_loss_known_value(self):
        assert hinge_g_loss(Tensor([1.0, 3.0])).item() == -2.0

    def test_g_loss_matches_oracle(self, rng):
        fake = rng.standard_normal(17)
        assert abs(hinge_g_loss(Tensor(fake)).item() - (-np.mean(fake))) < 1e-12


class TestSemanticEmbeddingLoss:
    def test_exact_match_gives_zero(self, mini_data, rng):
        embedder = mini_data[4]
        images = Tensor(rng.uniform(-1, 1, size=(3, 3 * IMG * IMG)))
        with ad.no_grad():
            targets = embedder.forward(images).data
        loss = semantic_embedding_loss(embedder.forward(images), Tensor(targets))
        assert loss.item() < 1e-24

    def test_unit_basis_offset_gives_one(self, mini_data, rng):
        embedder = mini_data[4]
        images = Tensor(rng.uniform(-1, 1, size=(4, 3 * IMG * IMG)))
        with ad.no_grad():
            pred = embedder.forward(images).data
        targets = pred.copy()
        targets[:, 0] -= 1.0
        loss = semantic_embedding_loss(embedder.forward(images), Tensor(targets))
        assert abs(loss.item() - 1.0) < 1e-12

    def test_matches_per_item_loop_oracle(self, mini_data, rng):
        embedder = mini_data[4]
        images = Tensor(rng.uniform(-1, 1, size=(5, 3 * IMG * IMG)))
        targets = rng.uniform(0, 1, size=(5, EMB))
        got = semantic_embedding_loss(embedder.forward(images), Tensor(targets)).item()
        with ad.no_grad():
            pred = embedder.forward(images).data
        acc = 0.0
        for i in range(5):
            acc += float(np.sum((pred[i] - targets[i]) ** 2))
        assert abs(got - acc / 5.0) < 1e-12

    def test_gradient_reaches_generator_only(self, mini_data, rng):
        """Passed only the generator's parameters, as training passes them,
        backward computes no product into the regressor's weights, though
        the loss flows through them."""
        embedder = mini_data[4]
        model = mini_model()
        z = Tensor(rng.standard_normal((2, Z)))
        v = Tensor(rng.uniform(0, 1, size=(2, EMB)))
        loss = semantic_embedding_loss(embedder.forward(generator_forward(model, z, v)), v)
        regressor_ids = {id(p) for p in embedder.parameters()}
        products = []
        nodes = ad.get_tape().nodes
        for i, (out, inputs, backward_fn) in enumerate(nodes):
            if regressor_ids.isdisjoint(map(id, inputs)):
                continue

            def spy(g, inputs=inputs, backward_fn=backward_fn):
                grads = backward_fn(g)
                products.extend(gi for t, gi in zip(inputs, grads) if id(t) in regressor_ids)
                return grads

            nodes[i] = (out, inputs, spy)
        grads = ad.backward(loss, model.generator_params())
        assert all(g is not None for g in grads) and any(np.any(g != 0) for g in grads)
        assert len(products) == len(regressor_ids) and all(g is None for g in products)


class TestRestrictedBackward:
    """A step's backward over only the parameters it updates gives them
    the gradients, bit for bit, of a pass over every parameter."""

    def _g_loss(self, model, mini_data):
        _, _, split, embeddings, embedder = mini_data
        rng = np.random.default_rng(17)
        seen = rng.choice(sorted(split.seen_ids), size=8)
        unseen = rng.choice(sorted(split.unseen_ids), size=8)
        v = Tensor(embeddings[seen])
        vu = Tensor(embeddings[unseen])
        fakes = generator_forward(model, Tensor(rng.standard_normal((8, Z))), v)
        adv = hinge_g_loss(discriminator_forward(model, fakes, v))
        fakes_u = generator_forward(model, Tensor(rng.standard_normal((8, Z))), vu)
        se = ad.add(
            semantic_embedding_loss(embedder.forward(fakes), v),
            semantic_embedding_loss(embedder.forward(fakes_u), vu),
        )
        return ad.add(adv, ad.scale(se, 0.1))

    def _d_loss(self, model, mini_data):
        _, dataset, _, embeddings, _ = mini_data
        rng = np.random.default_rng(18)
        rows = rng.integers(0, len(dataset), size=8)
        v = Tensor(embeddings[dataset.category_ids[rows]])
        with ad.no_grad():
            fakes = generator_forward(model, Tensor(rng.standard_normal((8, Z))), v)
        real = discriminator_forward(model, Tensor(dataset.images[rows].reshape(8, -1)), v)
        return hinge_d_loss(real, discriminator_forward(model, Tensor(fakes.data), v))

    def _check(self, mini_data, loss_fn, stepped, others):
        model = mini_model()
        model.refresh_spectral()
        full = ad.backward(loss_fn(model, mini_data), stepped(model) + others(model))
        step = ad.backward(loss_fn(model, mini_data), stepped(model))
        for p, got, want in zip(stepped(model), step, full):
            assert got.tobytes() == want.tobytes(), p.name

    def test_generator_step(self, mini_data):
        embedder = mini_data[4]
        self._check(
            mini_data,
            self._g_loss,
            GanModel.generator_params,
            lambda m: m.discriminator_params() + embedder.parameters(),
        )

    def test_discriminator_step(self, mini_data):
        self._check(mini_data, self._d_loss, GanModel.discriminator_params, GanModel.generator_params)

    @pytest.mark.parametrize("step", ["generator", "discriminator"])
    def test_every_stepped_parameter_gets_a_gradient_of_its_shape(self, mini_data, step):
        """``adam_step`` takes one array per parameter, of that parameter's
        shape, as ``backward`` returns them for either step's loss."""
        model = mini_model()
        model.refresh_spectral()
        if step == "generator":
            loss, params = self._g_loss(model, mini_data), model.generator_params()
        else:
            loss, params = self._d_loss(model, mini_data), model.discriminator_params()
        grads = ad.backward(loss, params)
        assert len(grads) == len(params)
        for p, g in zip(params, grads):
            assert isinstance(g, np.ndarray) and g.shape == p.data.shape, p.name


def separate_losses(model, seen, unseen, embedder, lambda_se):
    """(L_D, adversarial L_G, L_se seen, L_se unseen, L_G), each network run
    once per batch: D over the real rows and over the fakes, G and the
    regressor over the seen batch and over the unseen one. The fakes are
    G's from ``seen``'s noise and conditions; ``seen["images"]`` are the
    real rows, conditioned as the fakes."""
    cond = Tensor(seen["cond"])
    fakes = generator_forward(model, Tensor(seen["noise"]), cond)
    d_fake = discriminator_forward(model, fakes, cond)
    l_d = hinge_d_loss(discriminator_forward(model, Tensor(seen["images"]), cond), d_fake)
    adv = hinge_g_loss(d_fake)
    fakes_u = generator_forward(model, Tensor(unseen["noise"]), Tensor(unseen["cond"]))
    se_seen = semantic_embedding_loss(embedder.forward(fakes), Tensor(seen["targets"]))
    se_unseen = semantic_embedding_loss(embedder.forward(fakes_u), Tensor(unseen["targets"]))
    return l_d, adv, se_seen, se_unseen, ad.add(adv, ad.scale(ad.add(se_seen, se_unseen), lambda_se))


class TestTotalLosses:
    """The objectives ``train`` builds: L_D = hinge_d_loss(real, fake) and
    L_G = hinge_g_loss(fake) + lambda * (L_se(seen) + L_se(unseen))."""

    def _batches(self, mini_data, rng):
        _, dataset, split, embeddings, _ = mini_data
        seen = sorted(split.seen_ids)[0]
        unseen = sorted(split.unseen_ids)[0]
        seen_batch = dict(
            cond=embeddings[[seen] * 4],
            noise=rng.standard_normal((4, Z)),
            targets=embeddings[[seen] * 4],
            images=dataset.images[dataset.rows_of([seen])[:4]].reshape(4, -1),
        )
        unseen_batch = dict(
            cond=embeddings[[unseen] * 4],
            noise=rng.standard_normal((4, Z)),
            targets=embeddings[[unseen] * 4],
        )
        return seen_batch, unseen_batch

    def test_lambda_zero_reduces_to_adversarial(self, mini_data, rng):
        # train skips the knowledge terms at lambda = 0; that changes neither
        # the generator objective nor its gradient
        model = mini_model()
        model.refresh_spectral()
        seen, unseen = self._batches(mini_data, rng)
        *_, l_g = separate_losses(model, seen, unseen, mini_data[4], 0.0)
        composed = ad.backward(l_g, model.generator_params())
        _, adv, *_ = separate_losses(model, seen, unseen, mini_data[4], 0.0)
        adv_grads = ad.backward(adv, model.generator_params())

        cond = Tensor(seen["cond"])
        with ad.no_grad():
            fakes = generator_forward(model, Tensor(seen["noise"]), cond)
            d_fake = discriminator_forward(model, fakes, cond)
        assert abs(l_g.item() - (-float(np.mean(d_fake.data)))) < 1e-12
        assert abs(l_g.item() - adv.item()) < 1e-12
        for a, g in zip(adv_grads, composed):
            assert np.max(np.abs(a - g)) < 1e-12

    def test_matches_componentwise_oracle(self, mini_data, rng):
        embedder = mini_data[4]
        model = mini_model()
        model.refresh_spectral()
        seen, unseen = self._batches(mini_data, rng)
        l_d, *_, l_g = separate_losses(model, seen, unseen, embedder, 0.1)

        cond = Tensor(seen["cond"])
        with ad.no_grad():
            fakes = generator_forward(model, Tensor(seen["noise"]), cond)
            d_real = discriminator_forward(model, Tensor(seen["images"]), cond)
            d_fake = discriminator_forward(model, fakes, cond)
            pred_seen = embedder.forward(fakes).data
            fakes_u = generator_forward(model, Tensor(unseen["noise"]), Tensor(unseen["cond"]))
            pred_unseen = embedder.forward(fakes_u).data
        exp_d = np.mean(np.maximum(0.0, 1.0 - d_real.data)) + np.mean(
            np.maximum(0.0, 1.0 + d_fake.data)
        )
        se_seen = np.mean(np.sum((pred_seen - seen["targets"]) ** 2, axis=1))
        se_unseen = np.mean(np.sum((pred_unseen - unseen["targets"]) ** 2, axis=1))
        exp_g = -np.mean(d_fake.data) + 0.1 * (se_seen + se_unseen)
        assert abs(l_d.item() - exp_d) < 1e-12
        assert abs(l_g.item() - exp_g) < 1e-12


class TestStackedPasses:
    """``train`` runs D once over the real rows and the fakes stacked, and,
    at lambda_se > 0, G and the regressor once over the seen and unseen
    batches stacked. One ``train`` iteration matches ``separate_losses``
    built on the same draws from streams 0-3, run on the state each step
    starts from: the gradients handed to Adam to rtol 1e-5 and atol 1e-7,
    and the four logged losses to 1e-6 relative. The stacked products
    sum more rows at once, so float32 rounding may differ."""

    GRAD_RTOL = 1e-5
    GRAD_ATOL = 1e-7
    LOSS_RTOL = 1e-6

    @pytest.mark.parametrize("lambda_se", [0.1, 0.0], ids=["knowledge_loss", "sngan"])
    def test_one_iteration_matches_separate_passes(self, mini_data, monkeypatch, lambda_se):
        _, dataset, split, embeddings, embedder = mini_data
        model = mini_model()
        config = mini_config(gan_iterations=1, lambda_se=lambda_se)
        b, seed = config.batch_size, config.gan_seed
        cond = embeddings.astype(np.float32)
        seen_cats = np.asarray(sorted(split.seen_ids))
        unseen_cats = np.asarray(sorted(split.unseen_ids))

        # iteration 0's draws, in train's order and amounts
        rng = gan._stream(seed, 0, 0)
        pool = dataset.rows_of(seen_cats)
        rows = pool[rng.integers(0, pool.size, size=b)]
        real_cats = dataset.category_ids[rows]
        images = dataset.images[rows].reshape(b, -1)
        d_noise = gan._noise(gan._stream(seed, 0, 1), b, Z)
        rng = gan._stream(seed, 0, 2)
        g_cats = seen_cats[rng.integers(0, seen_cats.size, size=b)]
        g_noise = gan._noise(rng, b, Z)
        rng = gan._stream(seed, 0, 3)
        u_cats = unseen_cats[rng.integers(0, unseen_cats.size, size=b)]
        u_noise = gan._noise(rng, b, Z)

        def batch(cats, noise):
            return dict(cond=cond[cats], noise=noise, targets=cond[cats], images=images)

        d_batch = batch(real_cats, d_noise)
        g_batch, u_batch = batch(g_cats, g_noise), batch(u_cats, u_noise)
        expected, adam_step = {}, gan.adam_step

        def checked_adam_step(params, state, grads, t):
            if params == model.discriminator_params():
                l_d, *_ = separate_losses(model, d_batch, u_batch, embedder, lambda_se)
                expected["L_D"] = l_d.item()
                want = ad.backward(l_d, params)
            else:
                _, adv, se_seen, se_unseen, l_g = separate_losses(
                    model, g_batch, u_batch, embedder, lambda_se
                )
                l_g = l_g if lambda_se else adv
                expected.update(L_G=l_g.item(), L_se_seen=se_seen.item(), L_se_unseen=se_unseen.item())
                want = ad.backward(l_g, params)
            for p, got, ref in zip(params, grads, want):
                np.testing.assert_allclose(got, ref, rtol=self.GRAD_RTOL, atol=self.GRAD_ATOL, err_msg=p.name)
            adam_step(params, state, grads, t)

        monkeypatch.setattr(gan, "adam_step", checked_adam_step)
        knowledge = embedder if lambda_se else None
        (row,) = train(model, dataset, split, cond, embeddings, knowledge, config)
        assert expected.keys() == {"L_D", "L_G", "L_se_seen", "L_se_unseen"}
        if not lambda_se:
            expected.update(L_se_seen=0.0, L_se_unseen=0.0)
        got = dict(zip(gan.METRIC_COLUMNS[1:], row[1:]))
        for name, value in expected.items():
            assert got[name] == pytest.approx(value, rel=self.LOSS_RTOL), name


class TestTrainLoop:
    def test_zero_iterations_no_change(self, mini_data):
        _, dataset, split, embeddings, embedder = mini_data
        model = mini_model()
        reference = mini_model()
        train(model, dataset, split, embeddings, embeddings, embedder, mini_config(gan_iterations=0))
        for p, q in zip(
            model.generator_params() + model.discriminator_params(),
            reference.generator_params() + reference.discriminator_params(),
        ):
            assert np.array_equal(p.data, q.data)

    def test_fixed_seed_runs_identically(self, mini_data, tmp_path):
        _, dataset, split, embeddings, embedder = mini_data

        def run():
            model = mini_model()
            config = mini_config(gan_iterations=50)
            log = train(model, dataset, split, embeddings, embeddings, embedder, config)
            return log_text(log, tmp_path / "log.csv")

        assert run() == run()

    def test_weight_sharing_single_parameter_set(self, mini_data):
        _, dataset, split, embeddings, embedder = mini_data
        model = mini_model()
        train(model, dataset, split, embeddings, embeddings, embedder, mini_config(gan_iterations=10))
        # the generator invoked with seen and unseen conditions is the same object
        before = [p.data.copy() for p in model.generator_params()]
        ids_seen = sorted(split.seen_ids)[0]
        ids_unseen = sorted(split.unseen_ids)[0]
        sample_images(model, ids_seen, 2, embeddings, seed=0)
        sample_images(model, ids_unseen, 2, embeddings, seed=0)
        assert all(np.array_equal(p.data, q) for p, q in zip(model.generator_params(), before))

    def test_real_batches_never_use_unseen_categories(self, mini_data):
        """A real image reaches the discriminator's loss and the gradient
        of D.w1, so one NaN image in a real batch aborts the run."""
        _, dataset, split, embeddings, embedder = mini_data

        def poisoned(categories):
            images = dataset.images.copy()
            images[np.isin(dataset.category_ids, sorted(categories))] = np.nan
            return sd.Dataset(images, dataset.category_ids, dataset.specs)

        config = mini_config(gan_iterations=40)
        unseen_nan = poisoned(split.unseen_ids)
        log = train(mini_model(), unseen_nan, split, embeddings, embeddings, embedder, config)
        assert len(log) == 40
        # the control: the same run aborts when one seen category is poisoned
        seen_nan = poisoned({min(split.seen_ids)})
        with pytest.raises(NumericalAbort):
            train(mini_model(), seen_nan, split, embeddings, embeddings, embedder, config)

    def test_metric_log_schema(self, mini_data, tmp_path):
        _, dataset, split, embeddings, embedder = mini_data
        model = mini_model()
        config = mini_config(gan_iterations=5)
        log = train(model, dataset, split, embeddings, embeddings, embedder, config)
        assert len(log) == 5
        text = log_text(log, tmp_path / "log.csv", header_lines=["config abc", "seed 11"])
        lines = text.strip().splitlines()
        assert lines[0] == "# config abc"
        assert lines[2] == "iteration,L_D,L_G,L_se_seen,L_se_unseen"
        assert lines[3].startswith("0,")

    def test_lambda_zero_skips_knowledge_terms(self, mini_data):
        _, dataset, split, embeddings, _ = mini_data
        model = mini_model()
        log = train(
            model, dataset, split, embeddings, embeddings, None, mini_config(gan_iterations=5, lambda_se=0.0)
        )
        for row in log:
            assert row[3] == 0.0 and row[4] == 0.0

    def test_every_discriminator_pass_follows_its_iterations_refresh(self, mini_data, monkeypatch):
        """``train`` refreshes the spectral state at the top of each
        iteration, before any discriminator pass of that iteration."""
        _, dataset, split, embeddings, embedder = mini_data
        events, refresh, forward = [], GanModel.refresh_spectral, gan.discriminator_forward

        def spy_refresh(model):
            events.append("refresh")
            refresh(model)

        def spy_forward(model, x, v):
            events.append("D")
            return forward(model, x, v)

        monkeypatch.setattr(GanModel, "refresh_spectral", spy_refresh)
        monkeypatch.setattr(gan, "discriminator_forward", spy_forward)
        train(mini_model(), dataset, split, embeddings, embeddings, embedder, mini_config(gan_iterations=3))
        assert events.count("refresh") == 3
        assert events[0] == "refresh"
        passes = "".join("|" if e == "refresh" else "D" for e in events).split("|")[1:]
        assert len(passes) == 3 and all(passes)
        assert len(set(passes)) == 1

    def test_knowledge_loss_leaves_the_regressor_unchanged(self, mini_data):
        _, dataset, split, embeddings, embedder = mini_data
        before = [p.data.tobytes() for p in embedder.parameters()]
        config = mini_config(gan_iterations=5)
        log = train(mini_model(), dataset, split, embeddings, embeddings, embedder, config)
        assert all(row[3] > 0.0 and row[4] > 0.0 for row in log)
        assert [p.data.tobytes() for p in embedder.parameters()] == before

    def test_all_logged_losses_finite(self, mini_data):
        _, dataset, split, embeddings, embedder = mini_data
        model = mini_model()
        config = mini_config(gan_iterations=60)
        log = train(model, dataset, split, embeddings, embeddings, embedder, config)
        values = np.asarray([row[1:] for row in log], dtype=float)
        assert np.all(np.isfinite(values))

    @pytest.mark.parametrize(
        "name, value",
        [
            pytest.param("G.w2", np.nan, id="G.w2"),
            pytest.param("D.w1", np.nan, id="D.w1"),
            pytest.param("D.w1", np.inf, id="D.w1-inf"),
        ],
    )
    def test_nan_parameter_aborts_with_last_good(self, mini_data, name, value):
        """A NaN weight of either network makes D's first gradient
        non-finite; a NaN or an infinite D weight gets there through its
        NaN sigma, with no RuntimeWarning on the way."""
        _, dataset, split, embeddings, embedder = mini_data
        model = mini_model()
        params = {p.name: p for p in model.generator_params() + model.discriminator_params()}
        params[name].data[0, 0] = value
        with pytest.raises(NumericalAbort) as excinfo:
            train(model, dataset, split, embeddings, embeddings, embedder, mini_config(gan_iterations=3))
        assert str(excinfo.value) == "non-finite gradient for parameter D.w1 at iteration 0"
        assert excinfo.value.last_good is not None
        assert excinfo.value.log == []

    def test_nan_regressor_weight_names_every_knowledge_loss(self, mini_data, monkeypatch):
        """A NaN in the frozen regressor leaves L_D finite and makes L_G and
        both L_se terms non-finite at iteration 0; the abort names all three."""
        _, dataset, split, embeddings, embedder = mini_data
        weight = embedder.parameters()[0]
        poisoned = weight.data.copy()
        poisoned[0, 0] = np.nan
        monkeypatch.setattr(weight, "data", poisoned)
        config = mini_config(gan_iterations=3)
        with pytest.raises(NumericalAbort) as excinfo:
            train(mini_model(), dataset, split, embeddings, embeddings, embedder, config)
        assert str(excinfo.value) == "non-finite loss L_G, L_se_seen, L_se_unseen at iteration 0"
        assert excinfo.value.log == []

    def test_generator_gradient_matches_finite_differences(self, mini_data, float64_gan):
        """On a float64 copy of the model: central differences at h = 1e-5
        need double precision. The float32 embedder's weights widen
        exactly where they meet the float64 fakes, so it runs in double
        here too."""
        _, dataset, split, embeddings, embedder = mini_data
        model = float64_gan(mini_model())
        model.refresh_spectral()
        rng = np.random.default_rng(5)
        z = rng.standard_normal((1, Z))
        seen0 = sorted(split.seen_ids)[0]
        unseen0 = sorted(split.unseen_ids)[0]
        v = embeddings[seen0][None]
        vu = embeddings[unseen0][None]
        zu = rng.standard_normal((1, Z))
        lam = 0.1

        def loss_tensor():
            fakes = generator_forward(model, Tensor(z), Tensor(v))
            adv = hinge_g_loss(discriminator_forward(model, fakes, Tensor(v)))
            se_s = semantic_embedding_loss(embedder.forward(fakes), Tensor(v))
            fakes_u = generator_forward(model, Tensor(zu), Tensor(vu))
            se_u = semantic_embedding_loss(embedder.forward(fakes_u), Tensor(vu))
            return ad.add(adv, ad.scale(ad.add(se_s, se_u), lam))

        params = model.generator_params()
        analytic = ad.backward(loss_tensor(), params)

        rng_probe = np.random.default_rng(0)
        h = 1e-5
        for p, a in zip(params, analytic):
            flat = p.data.reshape(-1)
            aflat = a.reshape(-1)
            probes = rng_probe.choice(flat.size, size=min(12, flat.size), replace=False)
            for i in probes:
                keep = flat[i]
                flat[i] = keep + h
                with ad.no_grad():
                    hi = loss_tensor().item()
                flat[i] = keep - h
                with ad.no_grad():
                    lo = loss_tensor().item()
                flat[i] = keep
                fd = (hi - lo) / (2 * h)
                assert abs(aflat[i] - fd) / max(abs(fd), 1e-6) < 1e-3


class TestPrecision:
    """The GAN and the embedder, the instrument that scores it, compute in
    float32."""

    @staticmethod
    def audit_backward(monkeypatch):
        """The set of dtypes, filled as training runs, of every tape node's
        inputs and output, every gradient a backward rule receives or
        passes on, and every gradient ``backward`` returns."""
        seen, backward = set(), ad.backward

        def audited_rule(rule):
            def run(g):
                grads = rule(g)
                seen.update([g.dtype, *(gi.dtype for gi in grads if gi is not None)])
                return grads

            return run

        def audited(loss, params):
            nodes = ad.get_tape().nodes
            for out, inputs, _ in nodes:
                seen.update(t.data.dtype for t in (out, *inputs))
            nodes[:] = [(out, inputs, audited_rule(rule)) for out, inputs, rule in nodes]
            grads = backward(loss, params)
            seen.update(g.dtype for g in grads)
            return grads

        monkeypatch.setattr(ad, "backward", audited)
        return seen

    @pytest.mark.parametrize("lambda_se", [0.1, 0.0], ids=["knowledge_loss", "sngan"])
    def test_gan_iteration_is_float32_throughout(self, mini_data, monkeypatch, lambda_se):
        """From float64 tables and a built dataset's images: every tape
        tensor and gradient, parameter, spectral u and second moment, and a
        sample, is float32; the caller's embedder runs as it is, float32."""
        _, dataset, split, embeddings, embedder = mini_data
        seen = self.audit_backward(monkeypatch)
        model = mini_model()
        config = mini_config(gan_iterations=1, lambda_se=lambda_se)
        opt_g, opt_d = gan.new_optimizers(model, config)
        knowledge = embedder if lambda_se else None
        gan.train(model, dataset, split, embeddings, embeddings, knowledge, config, opt_g, opt_d, [])
        float32 = {np.dtype(np.float32)}
        assert seen == float32
        state = gan.gan_state(model, opt_g, opt_d)
        assert len(state) == 30 and {a.dtype for a in state.values()} == float32
        assert sample_images(model, 0, 4, embeddings, seed=1).dtype == np.float32
        assert {p.data.dtype for p in embedder.parameters()} == float32

    def test_embedder_trains_and_extracts_in_float32(self, mini_data, monkeypatch):
        """From a dataset's float32 images; the features are those of the
        images rounded to float32, bit for bit, from any float dtype."""
        _, dataset, split, embeddings, _ = mini_data
        seen = self.audit_backward(monkeypatch)
        images = dataset.images
        assert images.dtype == np.float32
        rows = dataset.rows_of(split.seen_ids)
        config = ExperimentConfig(image_size=IMG, embed_dim=EMB, embedder_steps=1, embedder_batch=8)
        model = train_embedder(images[rows], dataset.category_ids[rows], embeddings, config)
        float32 = {np.dtype(np.float32)}
        assert seen == float32
        assert {p.data.dtype for p in model.parameters()} == float32
        features = extract_features(model, images[:4])
        assert features.dtype == np.float32
        assert features.tobytes() == extract_features(model, images[:4].astype(np.float64)).tobytes()


GOLDEN_SNGAN_LOG = Path(__file__).parent / "golden" / "sngan_mini_metrics.csv"
GOLDEN_KGGAN_LOG = Path(__file__).parent / "golden" / "kggan_mini_metrics.csv"


class TestTapeSize:
    @pytest.mark.parametrize(
        "mode, cond_dim, lambda_se, expected",
        [("semantic_embedding", EMB, 0.1, [24, 42]), ("one_hot", 6, 0.0, [24, 22])],
        ids=["semantic", "one_hot"],
    )
    def test_nodes_recorded_per_step(self, mini_data, monkeypatch, mode, cond_dim, lambda_se, expected):
        """The condition rows enter the forwards as the table holds them and
        the images as the rows the networks take: no per-forward transform
        of constants and no reshape of an image batch is recorded. D's step
        is one 14-node discriminator pass over the real rows and the fakes,
        2 row slices and the 8-node hinge loss. G's is one generator pass
        (6: its input is joined off the tape), D (14) and the hinge (2).
        With L_se, G's pass covers the unseen batch too and D reads the
        seen slice (1); one regressor pass (6), the two halves' losses (10:
        a row slice and L_se's 4 nodes each) and L_G's sum (3) follow."""
        _, dataset, split, embeddings, embedder = mini_data
        counts, backward = [], ad.backward
        monkeypatch.setattr(
            ad, "backward", lambda *a, **k: counts.append(len(ad.get_tape())) or backward(*a, **k)
        )
        model = mini_model(condition_mode=mode, cond_dim=cond_dim)
        config = mini_config(gan_iterations=2, lambda_se=lambda_se)
        cond = gan.condition_table(mode, embeddings)
        train(model, dataset, split, cond, embeddings, embedder if lambda_se else None, config)
        # D's backward, then G's, in each iteration
        assert counts == expected * 2


class TestKnowledgeLossGolden:
    def test_knowledge_loss_run_matches_golden_bitwise(self, mini_data, tmp_path):
        """A 200-iteration run at lambda_se = 0.1 (semantic conditions, the
        frozen regressor's float32 copy on the generator's backward path,
        2 unseen categories) writes the metric log, and reaches the
        parameters, recorded in the golden file when each float32 step
        came to run one pass per network over stacked rows (the same at 1
        and 2 BLAS threads)."""
        _, dataset, split, embeddings, embedder = mini_data
        model = mini_model()
        config = mini_config(gan_iterations=200)
        log = train(model, dataset, split, embeddings, embeddings, embedder, config)
        digest = params_hash([p.data for p in model.generator_params() + model.discriminator_params()])
        text = log_text(log, tmp_path / "log.csv", [f"params {digest:016x}"])
        assert text == GOLDEN_KGGAN_LOG.read_text(encoding="utf-8")


class TestBaselineReduction:
    def test_lambda_zero_matches_sngan_code_path_bitwise(self, mini_data, tmp_path):
        """The full-data baseline through ``train`` (lambda_se = 0, every
        category seen, none unseen, one-hot conditions) writes the metric
        log, and reaches the parameters, recorded in the golden file when
        each float32 step came to run one pass per network over stacked
        rows (the same at 1 and 2 BLAS threads). In float64, with a D pass
        per batch, this run matched the former separate SN-GAN loop bit
        for bit."""
        specs, dataset, _, embeddings, _ = mini_data
        split = sd.SplitPlan(seen_ids={s.id for s in specs}, unseen_ids=set())
        model = mini_model(condition_mode="one_hot", cond_dim=len(specs))
        config = mini_config(gan_iterations=200, lambda_se=0.0)
        log = train(model, dataset, split, np.eye(len(specs)), embeddings, None, config)
        digest = params_hash([p.data for p in model.generator_params() + model.discriminator_params()])
        text = log_text(log, tmp_path / "log.csv", [f"params {digest:016x}"])
        assert text == GOLDEN_SNGAN_LOG.read_text(encoding="utf-8")


class TestCheckpointResume:
    def test_train_and_optimizers_read_the_experiment_config(self, mini_data, tmp_path):
        """``train`` runs ``gan_iterations`` iterations; ``new_optimizers``
        and ``load_gan`` learn at ``gan_lr``."""
        _, dataset, split, embeddings, embedder = mini_data
        config = ExperimentConfig(gan_iterations=2, batch_size=8, gan_seed=11, gan_lr=3e-4)
        model = mini_model()
        opt_g, opt_d = gan.new_optimizers(model, config)
        log = gan.train(model, dataset, split, embeddings, embeddings, embedder, config, opt_g, opt_d, [])
        assert [row[0] for row in log] == [0, 1]
        assert opt_g.learning_rate == opt_d.learning_rate == 3e-4
        path = tmp_path / "gan.ckpt"
        save_gan(path, gan.gan_state(model, opt_g, opt_d), model.condition_mode, {}, log)
        _, opt_g2, opt_d2, start = load_gan(path, mini_model(), config)
        assert start == 2
        assert opt_g2.learning_rate == opt_d2.learning_rate == 3e-4

    def test_resume_reproduces_uninterrupted_log(self, mini_data, tmp_path):
        _, dataset, split, embeddings, embedder = mini_data
        config = mini_config(gan_iterations=40)

        model_full = mini_model()
        log_full = train(model_full, dataset, split, embeddings, embeddings, embedder, config)

        # interruptible path: train to 20, checkpoint, load, continue to 40
        config_half = mini_config(gan_iterations=20)
        model_a = mini_model()
        opt_g, opt_d = gan.new_optimizers(model_a, config_half)
        log_a = gan.train(
            model_a, dataset, split, embeddings, embeddings, embedder, config_half, opt_g, opt_d, []
        )
        path = tmp_path / "gan.ckpt"
        state_a = gan.gan_state(model_a, opt_g, opt_d)
        save_gan(path, state_a, model_a.condition_mode, {}, log_a)

        model_c = mini_model(seed=99)  # different init; checkpoint must override
        log_c, opt_g2, opt_d2, start = load_gan(path, model_c, config)
        assert start == 20
        log_c = gan.train(
            model_c, dataset, split, embeddings, embeddings, embedder, config, opt_g2, opt_d2, log_c
        )
        # the log comes back from the checkpoint, its first 20 rows log_a's
        resumed = log_text(log_c, tmp_path / "resumed.csv")
        assert resumed == log_text(log_full, tmp_path / "full.csv")

    def test_checkpoint_preserves_condition_mode(self, mini_data, tmp_path):
        model = mini_model(condition_mode="one_hot", cond_dim=6)
        config = mini_config()
        opt_g, opt_d = gan.new_optimizers(model, config)
        path = tmp_path / "gan.ckpt"
        save_gan(path, gan.gan_state(model, opt_g, opt_d), model.condition_mode, {}, [])
        wrong = mini_model(condition_mode="semantic_embedding")
        with pytest.raises(ContractError, match="condition_mode 'one_hot'"):
            load_gan(path, wrong, config)

    @pytest.mark.parametrize(
        "damage, named",
        [
            (lambda s: s.pop("G.w1"), "tensor G.w1 is missing"),
            (lambda s: s.update({"G.extra": np.zeros(2)}), "unexpected tensor G.extra"),
            (lambda s: s.update({"D.proj": s.pop("D.v_proj")}), "tensor D.v_proj is missing"),
            (lambda s: s.update({"adam_d.v.D.w2": np.zeros(3)}), r"adam_d.v.D.w2 has shape \(3,\)"),
            (
                lambda s: s.update({"spectral.D.w1.u": np.zeros(5, np.float32)}),
                r"spectral.D.w1.u has shape \(5,\), expected \(192,\)",
            ),
            # a file from when the spectral sigma, steps and degenerate flag were stored
            (
                lambda s: s.update({"spectral.D.w1.sigma": np.asarray(1.0)}),
                "unexpected tensor spectral.D.w1.sigma",
            ),
            # files from when the condition transform and the iteration were stored
            (lambda s: s.update({"cond.transform": np.eye(EMB)}), "unexpected tensor cond.transform"),
            (lambda s: s.update({"iteration": np.asarray(0.0)}), "unexpected tensor iteration"),
        ],
        ids=[
            "missing",
            "extra",
            "renamed",
            "misshaped",
            "misshaped_u",
            "old_spectral_entry",
            "old_transform",
            "old_iteration",
        ],
    )
    def test_mismatched_tensor_is_named(self, tmp_path, damage, named):
        model, config = mini_model(), mini_config()
        opt_g, opt_d = gan.new_optimizers(model, config)
        path = tmp_path / "gan.ckpt"
        save_gan(path, gan.gan_state(model, opt_g, opt_d), model.condition_mode, {}, [])
        state, metadata = load_checkpoint(path)
        damage(state)
        save_checkpoint(path, state, metadata)
        with pytest.raises(ContractError, match=named):
            load_gan(path, mini_model(), config)


class TestSampling:
    def test_sample_images_deterministic(self, mini_data):
        _, _, split, embeddings, _ = mini_data
        model = mini_model()
        cid = sorted(split.seen_ids)[0]
        a = sample_images(model, cid, 4, embeddings, seed=7)
        b = sample_images(model, cid, 4, embeddings, seed=7)
        assert np.array_equal(a, b)
        assert a.shape == (4, 3, IMG, IMG)

    def test_sampling_never_runs_the_discriminator(self, mini_data, monkeypatch):
        """Sampling needs no spectral refresh: it runs the generator only."""
        _, _, split, embeddings, _ = mini_data

        def refuse(*args):
            raise AssertionError("sampling ran the discriminator")

        monkeypatch.setattr(gan, "discriminator_forward", refuse)
        model = mini_model()
        images = sample_images(model, sorted(split.unseen_ids)[0], 3, embeddings, seed=7)
        assert images.shape == (3, 3, IMG, IMG)
        assert model.sigma == {}


class TestConditionTable:
    def test_one_hot_is_the_identity(self, mini_data):
        embeddings = mini_data[3]
        # row i is the i-th unit vector, whatever the embeddings
        assert np.array_equal(gan.condition_table("one_hot", embeddings), np.eye(len(embeddings)))
        assert np.array_equal(gan.condition_table("one_hot", embeddings[:3]), np.eye(3))

    def test_semantic_is_the_whitened_table_bitwise(self, mini_data):
        embeddings = mini_data[3]
        matrix, shift = gan.condition_preconditioner(embeddings)
        cond = gan.condition_table("semantic_embedding", embeddings)
        assert cond.tobytes() == ((embeddings - shift) @ matrix).tobytes()

    def test_batch_of_rows_is_whitening_the_batch(self, mini_data):
        """A batch of the table's rows has the bits of whitening that
        batch's own condition vectors."""
        embeddings = mini_data[3]
        matrix, shift = gan.condition_preconditioner(embeddings)
        ids = np.array([3, 0, 5, 0, 2, 1, 4, 3])  # a batch of 8 naming every category
        cond = gan.condition_table("semantic_embedding", embeddings)
        assert np.array_equal(cond[ids], (embeddings[ids] - shift) @ matrix)

    @staticmethod
    def _pairwise_distances(table):
        diffs = table[:, None, :] - table[None, :, :]
        return np.linalg.norm(diffs, axis=2)[np.triu_indices(len(table), 1)]

    def test_whitening_a_rank_n_minus_1_table_makes_a_regular_simplex(self):
        """All-row whitening of n rows whose centred table has rank n - 1
        leaves every pair of rows the same distance apart, whatever the
        raw geometry: the default 12-category table, and a random one."""
        tables = [
            sem.build_embeddings(sd.make_category_specs(12), dim=64),
            np.random.default_rng(0).standard_normal((12, 64)),
        ]
        for embeddings in tables:
            assert np.linalg.matrix_rank(embeddings - embeddings.mean(axis=0)) == 11
            raw = self._pairwise_distances(embeddings)
            assert raw.max() > 1.1 * raw.min()
            whitened = self._pairwise_distances(gan.condition_table("semantic_embedding", embeddings))
            np.testing.assert_allclose(whitened, whitened[0], rtol=1e-9)

    def test_whitening_a_lower_rank_table_keeps_unequal_distances(self):
        """The simplex needs rank n - 1: 12 rows spanning 5 dimensions
        stay unequally spaced after whitening."""
        rng = np.random.default_rng(1)
        embeddings = rng.standard_normal((12, 5)) @ rng.standard_normal((5, 64))
        whitened = self._pairwise_distances(gan.condition_table("semantic_embedding", embeddings))
        assert whitened.max() > 1.5 * whitened.min()
