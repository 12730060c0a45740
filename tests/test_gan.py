"""GAN forwards, the three loss families, and the training loop."""

from pathlib import Path

import numpy as np
import pytest

from kggan import autodiff as ad
from kggan import gan
from kggan import semantics as sem
from kggan import synthdata as sd
from kggan.autodiff import Tensor
from kggan.errors import ContractError, DimensionError, NumericalAbort
from kggan.checkpoint import load_checkpoint, save_checkpoint
from kggan.hashing import fnv1a_64
from kggan.gan import (
    GanModel,
    TrainConfig,
    discriminator_forward,
    generator_forward,
    hinge_d_loss,
    hinge_g_loss,
    load_gan,
    one_hot_condition_source,
    sample_images,
    save_gan,
    semantic_condition_source,
    semantic_embedding_loss,
    train,
)
from kggan.regressor import RegressorModel, freeze

IMG = 8
EMB = 16
Z = 8


def params_hash(arrays) -> int:
    """Order-sensitive FNV-1a content hash of float64 arrays (the golden
    file's ``params`` line)."""
    h = 0xCBF29CE484222325
    for arr in arrays:
        h ^= fnv1a_64(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


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
    specs = sd.make_category_specs(6)
    dataset = sd.build_dataset(specs, images_per_category=10, image_size=IMG, seed=21)
    split = sd.make_split([s.id for s in specs], n_unseen=2, seed=4)
    embeddings = sem.build_embeddings(specs, dim=EMB)
    embedder = freeze(RegressorModel(IMG, EMB, np.random.default_rng(9)))
    return specs, dataset, split, embeddings, embedder


def mini_config(**kw):
    defaults = dict(
        lambda_se=0.1,
        iterations=30,
        batch_size=8,
        z_dim=Z,
        d_steps_per_g_step=1,
        seed=11,
        learning_rate=2e-4,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestGeneratorForward:
    def test_output_range(self, rng):
        model = mini_model()
        z = Tensor(rng.standard_normal((4, Z)))
        v = Tensor(rng.uniform(0, 1, size=(4, EMB)))
        out = generator_forward(model, z, v)
        assert out.data.shape == (4, 3, IMG, IMG)
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
        config = mini_config(iterations=150)
        train(model, dataset, split, embeddings, embedder, config)
        rng = np.random.default_rng(0)
        z = Tensor(rng.standard_normal((1, Z)))
        ids = sorted(split.seen_ids)[:2]
        with ad.no_grad():
            a = generator_forward(model, z, Tensor(embeddings[ids[0]].vector[None]))
            b = generator_forward(model, z, Tensor(embeddings[ids[1]].vector[None]))
        assert np.max(np.abs(a.data - b.data)) > 1e-3


class TestDiscriminatorForward:
    def test_zero_projection_matrix_ignores_condition(self, rng):
        model = mini_model()
        model.v_proj.data[:] = 0.0
        model.refresh_spectral()
        x = Tensor(rng.uniform(-1, 1, size=(3, 3, IMG, IMG)))
        s1 = discriminator_forward(model, x, Tensor(rng.uniform(0, 1, size=(3, EMB))))
        s2 = discriminator_forward(model, x, Tensor(rng.uniform(0, 1, size=(3, EMB))))
        assert np.allclose(s1.data, s2.data)

    def test_zero_condition_reduces_to_unconditional_head(self, rng):
        model = mini_model()
        model.refresh_spectral()
        x = Tensor(rng.uniform(-1, 1, size=(2, 3, IMG, IMG)))
        v0 = Tensor(np.zeros((2, EMB)))
        scores = discriminator_forward(model, x, v0)
        # independent recomputation of psi(phi(x)) with normalized weights
        from kggan.spectral import spectral_normalize

        w1 = spectral_normalize(model.dw1, model.spectral["dw1"]).data
        w2 = spectral_normalize(model.dw2, model.spectral["dw2"]).data
        psi_w = spectral_normalize(model.psi_w, model.spectral["psi_w"]).data
        flat = x.data.reshape(2, -1)
        h = np.where(flat @ w1 + model.db1.data > 0, flat @ w1 + model.db1.data, 0.1 * (flat @ w1 + model.db1.data))
        phi = np.where(h @ w2 + model.db2.data > 0, h @ w2 + model.db2.data, 0.1 * (h @ w2 + model.db2.data))
        expected = (phi @ psi_w)[:, 0] + model.psi_b.data[0]
        assert np.max(np.abs(scores.data - expected)) < 1e-12

    def test_matches_projection_formula_oracle(self, rng):
        model = mini_model()
        model.refresh_spectral()
        x = Tensor(rng.uniform(-1, 1, size=(4, 3, IMG, IMG)))
        v = Tensor(rng.uniform(0, 1, size=(4, EMB)))
        scores = discriminator_forward(model, x, v)

        from kggan.spectral import spectral_normalize

        w1 = spectral_normalize(model.dw1, model.spectral["dw1"]).data
        w2 = spectral_normalize(model.dw2, model.spectral["dw2"]).data
        psi_w = spectral_normalize(model.psi_w, model.spectral["psi_w"]).data
        v_proj = spectral_normalize(model.v_proj, model.spectral["v_proj"]).data
        flat = x.data.reshape(4, -1)
        pre1 = flat @ w1 + model.db1.data
        h = np.where(pre1 > 0, pre1, 0.1 * pre1)
        pre2 = h @ w2 + model.db2.data
        phi = np.where(pre2 > 0, pre2, 0.1 * pre2)
        expected = (phi @ psi_w)[:, 0] + model.psi_b.data[0] + np.sum((v.data @ v_proj) * phi, axis=1)
        assert np.max(np.abs(scores.data - expected)) < 1e-12

    def test_requires_current_spectral_state(self, rng):
        model = mini_model()
        x = Tensor(rng.uniform(-1, 1, size=(2, 3, IMG, IMG)))
        with pytest.raises(ContractError):
            discriminator_forward(model, x, Tensor(np.zeros((2, EMB))))


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

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError):
            hinge_d_loss(Tensor(np.zeros(0)), Tensor([0.0]))
        with pytest.raises(ContractError):
            hinge_g_loss(Tensor(np.zeros(0)))


class TestSemanticEmbeddingLoss:
    def test_exact_match_gives_zero(self, mini_data, rng):
        embedder = mini_data[4]
        images = Tensor(rng.uniform(-1, 1, size=(3, 3, IMG, IMG)))
        with ad.no_grad():
            targets = embedder.forward(images).data
        loss = semantic_embedding_loss(images, Tensor(targets), embedder)
        assert loss.item() < 1e-24

    def test_unit_basis_offset_gives_one(self, mini_data, rng):
        embedder = mini_data[4]
        images = Tensor(rng.uniform(-1, 1, size=(4, 3, IMG, IMG)))
        with ad.no_grad():
            pred = embedder.forward(images).data
        targets = pred.copy()
        targets[:, 0] -= 1.0
        loss = semantic_embedding_loss(images, Tensor(targets), embedder)
        assert abs(loss.item() - 1.0) < 1e-12

    def test_matches_per_item_loop_oracle(self, mini_data, rng):
        embedder = mini_data[4]
        images = Tensor(rng.uniform(-1, 1, size=(5, 3, IMG, IMG)))
        targets = rng.uniform(0, 1, size=(5, EMB))
        got = semantic_embedding_loss(images, Tensor(targets), embedder).item()
        with ad.no_grad():
            pred = embedder.forward(images).data
        acc = 0.0
        for i in range(5):
            acc += float(np.sum((pred[i] - targets[i]) ** 2))
        assert abs(got - acc / 5.0) < 1e-12

    def test_unfrozen_embedder_rejected(self, rng):
        embedder = RegressorModel(IMG, EMB, np.random.default_rng(0))
        with pytest.raises(ContractError):
            semantic_embedding_loss(
                Tensor(np.zeros((1, 3, IMG, IMG))), Tensor(np.zeros((1, EMB))), embedder
            )

    def test_gradient_reaches_generator_only(self, mini_data, rng):
        embedder = mini_data[4]
        model = mini_model()
        z = Tensor(rng.standard_normal((2, Z)))
        v = Tensor(rng.uniform(0, 1, size=(2, EMB)))
        fakes = generator_forward(model, z, v)
        loss = semantic_embedding_loss(fakes, v, embedder)
        ad.backward(loss)
        assert any(np.any(p.grad != 0) for p in model.generator_params() if p.grad is not None)
        for p in embedder.parameters():
            assert p.grad is None


class TestRestrictedBackward:
    """A step's backward over only the parameters it updates gives those
    parameters the full pass's gradients, bit for bit, and no others."""

    def _g_loss(self, model, mini_data):
        _, _, split, embeddings, embedder = mini_data
        rng = np.random.default_rng(17)
        seen = rng.choice(sorted(split.seen_ids), size=8)
        unseen = rng.choice(sorted(split.unseen_ids), size=8)
        v = Tensor(np.stack([embeddings[int(c)].vector for c in seen]))
        vu = Tensor(np.stack([embeddings[int(c)].vector for c in unseen]))
        fakes = generator_forward(model, Tensor(rng.standard_normal((8, Z))), v)
        adv = hinge_g_loss(discriminator_forward(model, fakes, v))
        fakes_u = generator_forward(model, Tensor(rng.standard_normal((8, Z))), vu)
        se = ad.add(
            semantic_embedding_loss(fakes, v, embedder),
            semantic_embedding_loss(fakes_u, vu, embedder),
        )
        return ad.add(adv, ad.scale(se, 0.1))

    def _d_loss(self, model, mini_data):
        _, dataset, _, embeddings, _ = mini_data
        rng = np.random.default_rng(18)
        rows = rng.integers(0, len(dataset), size=8)
        v = Tensor(np.stack([embeddings[int(c)].vector for c in dataset.category_ids[rows]]))
        with ad.no_grad():
            fakes = generator_forward(model, Tensor(rng.standard_normal((8, Z))), v)
        real = discriminator_forward(model, Tensor(dataset.images[rows]), v)
        return hinge_d_loss(real, discriminator_forward(model, Tensor(fakes.data), v))

    def _check(self, mini_data, loss_fn, stepped, others):
        model = mini_model()
        model.refresh_spectral()
        ad.backward(loss_fn(model, mini_data))
        full = [p.grad.copy() for p in stepped(model)]
        ad.backward(loss_fn(model, mini_data), stepped(model))
        for p, want in zip(stepped(model), full):
            assert p.grad.tobytes() == want.tobytes(), p.name
        for p in others(model):
            assert p.grad is None, p.name

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


class TestTotalLosses:
    """The objectives ``train`` builds: L_D = hinge_d_loss(real, fake) and
    L_G = hinge_g_loss(fake) + lambda * (L_se(seen) + L_se(unseen))."""

    def _batches(self, mini_data, rng):
        _, dataset, split, embeddings, _ = mini_data
        seen = sorted(split.seen_ids)[0]
        unseen = sorted(split.unseen_ids)[0]
        cond = semantic_condition_source(embeddings)
        seen_batch = dict(
            cond=cond.batch([seen] * 4),
            noise=rng.standard_normal((4, Z)),
            targets=np.stack([embeddings[seen].vector] * 4),
            images=dataset.images[dataset.indices_of(seen)[:4]],
        )
        unseen_batch = dict(
            cond=cond.batch([unseen] * 4),
            noise=rng.standard_normal((4, Z)),
            targets=np.stack([embeddings[unseen].vector] * 4),
        )
        return seen_batch, unseen_batch

    def _losses(self, model, seen, unseen, embedder, lambda_se):
        cond = Tensor(seen["cond"])
        fakes = generator_forward(model, Tensor(seen["noise"]), cond)
        d_fake = discriminator_forward(model, fakes, cond)
        l_d = hinge_d_loss(discriminator_forward(model, Tensor(seen["images"]), cond), d_fake)
        adv = hinge_g_loss(d_fake)
        fakes_u = generator_forward(model, Tensor(unseen["noise"]), Tensor(unseen["cond"]))
        se = ad.add(
            semantic_embedding_loss(fakes, Tensor(seen["targets"]), embedder),
            semantic_embedding_loss(fakes_u, Tensor(unseen["targets"]), embedder),
        )
        return l_d, adv, ad.add(adv, ad.scale(se, lambda_se))

    def test_lambda_zero_reduces_to_adversarial(self, mini_data, rng):
        # train skips the knowledge terms at lambda = 0; that changes neither
        # the generator objective nor its gradient
        model = mini_model()
        model.refresh_spectral()
        seen, unseen = self._batches(mini_data, rng)
        _, _, l_g = self._losses(model, seen, unseen, mini_data[4], 0.0)
        ad.backward(l_g, model.generator_params())
        composed = [p.grad.copy() for p in model.generator_params()]
        _, adv, _ = self._losses(model, seen, unseen, mini_data[4], 0.0)
        ad.backward(adv, model.generator_params())

        cond = Tensor(seen["cond"])
        with ad.no_grad():
            fakes = generator_forward(model, Tensor(seen["noise"]), cond)
            d_fake = discriminator_forward(model, fakes, cond)
        assert abs(l_g.item() - (-float(np.mean(d_fake.data)))) < 1e-12
        assert abs(l_g.item() - adv.item()) < 1e-12
        for p, g in zip(model.generator_params(), composed):
            assert np.max(np.abs(p.grad - g)) < 1e-12

    def test_matches_componentwise_oracle(self, mini_data, rng):
        embedder = mini_data[4]
        model = mini_model()
        model.refresh_spectral()
        seen, unseen = self._batches(mini_data, rng)
        l_d, _, l_g = self._losses(model, seen, unseen, embedder, 0.1)

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


class TestTrainLoop:
    def test_zero_iterations_no_change(self, mini_data):
        _, dataset, split, embeddings, embedder = mini_data
        model = mini_model()
        reference = mini_model()
        train(model, dataset, split, embeddings, embedder, mini_config(iterations=0))
        for p, q in zip(
            model.generator_params() + model.discriminator_params(),
            reference.generator_params() + reference.discriminator_params(),
        ):
            assert np.array_equal(p.data, q.data)

    def test_fixed_seed_runs_identically(self, mini_data):
        _, dataset, split, embeddings, embedder = mini_data

        def run():
            model = mini_model()
            _, log = train(model, dataset, split, embeddings, embedder, mini_config(iterations=50))
            return log.to_csv_text()

        assert run() == run()

    def test_weight_sharing_single_parameter_set(self, mini_data):
        _, dataset, split, embeddings, embedder = mini_data
        model = mini_model()
        train(model, dataset, split, embeddings, embedder, mini_config(iterations=10))
        # the generator invoked with seen and unseen conditions is the same object
        before = [p.data.copy() for p in model.generator_params()]
        ids_seen = sorted(split.seen_ids)[0]
        ids_unseen = sorted(split.unseen_ids)[0]
        cond = semantic_condition_source(embeddings)
        sample_images(model, ids_seen, 2, cond, seed=0)
        sample_images(model, ids_unseen, 2, cond, seed=0)
        assert all(np.array_equal(p.data, q) for p, q in zip(model.generator_params(), before))

    def test_real_batches_never_use_unseen_categories(self, mini_data):
        _, dataset, split, embeddings, embedder = mini_data
        model = mini_model()
        audit = []
        train(
            model, dataset, split, embeddings, embedder, mini_config(iterations=40), audit=audit
        )
        assert audit
        seen = split.seen_ids
        for batch in audit:
            assert set(int(c) for c in batch) <= seen

    def test_metric_log_schema(self, mini_data):
        _, dataset, split, embeddings, embedder = mini_data
        model = mini_model()
        _, log = train(model, dataset, split, embeddings, embedder, mini_config(iterations=5))
        assert len(log.rows) == 5
        text = log.to_csv_text(header_lines=["config abc", "seed 11"])
        lines = text.strip().splitlines()
        assert lines[0] == "# config abc"
        assert lines[2] == "iteration,L_D,L_G,L_se_seen,L_se_unseen"
        assert lines[3].startswith("0,")

    def test_lambda_zero_skips_knowledge_terms(self, mini_data):
        _, dataset, split, embeddings, _ = mini_data
        model = mini_model()
        _, log = train(
            model, dataset, split, embeddings, None, mini_config(iterations=5, lambda_se=0.0)
        )
        for row in log.rows:
            assert row[3] == 0.0 and row[4] == 0.0

    def test_knowledge_loss_needs_unseen_categories(self, mini_data):
        specs, dataset, _, embeddings, embedder = mini_data
        split = sd.SplitPlan(seen_ids={s.id for s in specs}, unseen_ids=set(), seed=0)
        with pytest.raises(ContractError, match="unseen"):
            train(mini_model(), dataset, split, embeddings, embedder, mini_config(iterations=1))

    def test_unfrozen_embedder_rejected(self, mini_data):
        _, dataset, split, embeddings, _ = mini_data
        model = mini_model()
        thawed = RegressorModel(IMG, EMB, np.random.default_rng(1))
        with pytest.raises(ContractError):
            train(model, dataset, split, embeddings, thawed, mini_config(iterations=1))

    def test_all_logged_losses_finite(self, mini_data):
        _, dataset, split, embeddings, embedder = mini_data
        model = mini_model()
        _, log = train(model, dataset, split, embeddings, embedder, mini_config(iterations=60))
        values = np.asarray([row[1:] for row in log.rows], dtype=float)
        assert np.all(np.isfinite(values))

    def test_nan_parameter_aborts_with_last_good(self, mini_data):
        _, dataset, split, embeddings, embedder = mini_data
        model = mini_model()
        model.gw2.data[0, 0] = np.nan
        with pytest.raises(NumericalAbort) as excinfo:
            train(model, dataset, split, embeddings, embedder, mini_config(iterations=3))
        assert excinfo.value.last_good is not None
        assert excinfo.value.iteration == 0

    def test_generator_gradient_matches_finite_differences(self, mini_data):
        _, dataset, split, embeddings, embedder = mini_data
        model = mini_model()
        model.refresh_spectral()
        rng = np.random.default_rng(5)
        z = rng.standard_normal((1, Z))
        seen0 = sorted(split.seen_ids)[0]
        unseen0 = sorted(split.unseen_ids)[0]
        v = embeddings[seen0].vector[None]
        vu = embeddings[unseen0].vector[None]
        zu = rng.standard_normal((1, Z))
        lam = 0.1

        def loss_tensor():
            fakes = generator_forward(model, Tensor(z), Tensor(v))
            adv = hinge_g_loss(discriminator_forward(model, fakes, Tensor(v)))
            se_s = semantic_embedding_loss(fakes, Tensor(v), embedder)
            fakes_u = generator_forward(model, Tensor(zu), Tensor(vu))
            se_u = semantic_embedding_loss(fakes_u, Tensor(vu), embedder)
            return ad.add(adv, ad.scale(ad.add(se_s, se_u), lam))

        ad.backward(loss_tensor())
        params = model.generator_params()
        analytic = [p.grad.copy() for p in params]

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


GOLDEN_SNGAN_LOG = Path(__file__).parent / "golden" / "sngan_mini_metrics.csv"


class TestBaselineReduction:
    def test_lambda_zero_matches_sngan_code_path_bitwise(self, mini_data):
        """The full-data baseline through ``train`` (lambda_se = 0, every
        category seen, none unseen, one-hot conditions) writes the metric
        log, and reaches the parameters, that the former separate SN-GAN
        loop recorded in the golden file for the same run."""
        specs, dataset, _, embeddings, _ = mini_data
        split = sd.SplitPlan(seen_ids={s.id for s in specs}, unseen_ids=set(), seed=0)
        model = mini_model(condition_mode="one_hot", cond_dim=len(specs))
        config = mini_config(iterations=200, lambda_se=0.0)
        _, log = train(model, dataset, split, embeddings, None, config)
        digest = params_hash([p.data for p in model.generator_params() + model.discriminator_params()])
        text = log.to_csv_text([f"params {digest:016x}"])
        assert text == GOLDEN_SNGAN_LOG.read_text(encoding="utf-8")


class TestCheckpointResume:
    def test_resume_reproduces_uninterrupted_log(self, mini_data, tmp_path):
        _, dataset, split, embeddings, embedder = mini_data
        config = mini_config(iterations=40)

        model_full = mini_model()
        _, log_full = train(model_full, dataset, split, embeddings, embedder, config)

        # interruptible path: train to 20, checkpoint, load, continue to 40
        config_half = mini_config(iterations=20)
        model_a = mini_model()
        opt_g, opt_d = gan._make_optimizers(model_a, config_half, None, None)
        _, log_a = train(
            model_a, dataset, split, embeddings, embedder, config_half, opt_g=opt_g, opt_d=opt_d
        )
        path = tmp_path / "gan.ckpt"
        save_gan(path, model_a, opt_g, opt_d, iteration=20)

        model_c = mini_model(seed=99)  # different init; checkpoint must override
        model_c, opt_g2, opt_d2, start = load_gan(path, model_c, config)
        assert start == 20
        _, log_c = train(
            model_c,
            dataset,
            split,
            embeddings,
            embedder,
            config,
            start_iteration=start,
            opt_g=opt_g2,
            opt_d=opt_d2,
            log=gan.MetricLog(rows=list(log_a.rows)),
        )
        assert log_c.to_csv_text() == log_full.to_csv_text()

    def test_checkpoint_preserves_condition_mode(self, mini_data, tmp_path):
        model = mini_model(condition_mode="one_hot", cond_dim=6)
        config = mini_config()
        opt_g, opt_d = gan._make_optimizers(model, config, None, None)
        path = tmp_path / "gan.ckpt"
        save_gan(path, model, opt_g, opt_d, iteration=0)
        wrong = mini_model(condition_mode="semantic_embedding")
        with pytest.raises(ContractError, match="condition_mode 'one_hot'"):
            load_gan(path, wrong, config)

    @pytest.mark.parametrize(
        "damage, named",
        [
            (lambda s: s.pop("G.w1"), "tensor G.w1 is missing"),
            (lambda s: s.update({"G.extra": np.zeros(2)}), "unexpected tensor G.extra"),
            (lambda s: s.update({"D.proj": s.pop("D.v_proj")}), "tensor D.v_proj is missing"),
            (lambda s: s.update({"adam_d.m.D.w2": np.zeros(3)}), r"adam_d.m.D.w2 has shape \(3,\)"),
        ],
        ids=["missing", "extra", "renamed", "misshaped"],
    )
    def test_mismatched_tensor_is_named(self, tmp_path, damage, named):
        model, config = mini_model(), mini_config()
        opt_g, opt_d = gan._make_optimizers(model, config, None, None)
        path = tmp_path / "gan.ckpt"
        save_gan(path, model, opt_g, opt_d, iteration=0)
        state, metadata = load_checkpoint(path)
        damage(state)
        save_checkpoint(path, state, metadata)
        with pytest.raises(ContractError, match=named):
            load_gan(path, mini_model(), config)


class TestSampling:
    def test_sample_images_deterministic(self, mini_data):
        _, _, split, embeddings, _ = mini_data
        model = mini_model()
        cond = semantic_condition_source(embeddings)
        cid = sorted(split.seen_ids)[0]
        a = sample_images(model, cid, 4, cond, seed=7)
        b = sample_images(model, cid, 4, cond, seed=7)
        assert np.array_equal(a, b)
        assert a.shape == (4, 3, IMG, IMG)

    def test_one_hot_condition_source_layout(self):
        cond = one_hot_condition_source([4, 2, 9])
        assert cond.dim == 3
        assert np.array_equal(cond.vector(2), [1.0, 0.0, 0.0])
        assert np.array_equal(cond.vector(9), [0.0, 0.0, 1.0])
