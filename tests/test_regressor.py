"""Embedding regressor: training, freezing, prediction, persistence."""

import numpy as np
import pytest

from kggan import autodiff as ad
from kggan import semantics as sem
from kggan import synthdata as sd
from kggan.autodiff import Tensor
from kggan.checkpoint import save_checkpoint
from kggan.errors import ContractError, DimensionError
from kggan.regressor import (
    RegressorConfig,
    RegressorModel,
    extract_features,
    freeze,
    load_regressor,
    save_regressor,
    train_embedder,
)


def make_samples(n_categories=3, per_category=20, image_size=12, seed=5):
    specs = sd.make_category_specs(n_categories)
    samples = []
    for spec in specs:
        for k in range(per_category):
            s = sd.render_sample(spec, instance_seed=seed * 10_000 + k, image_size=image_size)
            samples.append(s)
    embeddings = sem.build_embeddings(specs, dim=16)
    return specs, samples, embeddings


def predict(model, images):
    """No-grad predictions for an [n,3,S,S] batch."""
    with ad.no_grad():
        return model.forward(Tensor(np.asarray(images), _validate=False)).data


def param_bytes(model):
    """Every parameter's bytes, in order: equal iff the parameters are."""
    return b"".join(p.data.tobytes() for p in model.parameters())


@pytest.fixture(scope="module")
def trained():
    specs, samples, embeddings = make_samples()
    config = RegressorConfig(embed_dim=16, image_size=12, steps=600, seed=1)
    model = train_embedder(samples, embeddings, config)
    return specs, samples, embeddings, model


class TestTrainEmbedder:
    def test_single_category_constant_images_converges(self):
        spec = sd.make_category_specs(1)[0]
        image = sd.render_sample(spec, instance_seed=0, image_size=12).image
        samples = [sd.Sample(image=image, category_id=0) for _ in range(8)]
        embeddings = sem.build_embeddings([spec], dim=16)
        config = RegressorConfig(
            embed_dim=16, image_size=12, steps=500, plateau_window=0, seed=0
        )
        model = train_embedder(samples, embeddings, config)
        history = model.training_loss_history
        assert history[-1] < 1e-3 * history[0]

    def test_zero_steps_returns_initialized_model(self):
        _, samples, embeddings = make_samples(per_category=4)
        config = RegressorConfig(embed_dim=16, image_size=12, steps=0, seed=2)
        model = train_embedder(samples, embeddings, config)
        assert model.training_loss_history == []
        assert not model.frozen
        fresh = RegressorModel(12, 16, np.random.default_rng(2))
        for p, q in zip(model.parameters(), fresh.parameters()):
            assert np.array_equal(p.data, q.data)

    def test_beats_untrained_model(self, trained):
        _, samples, embeddings, model = trained
        untrained = RegressorModel(12, 16, np.random.default_rng(77))

        def mean_error(m):
            preds = predict(m, np.stack([s.image for s in samples]))
            targets = np.stack([embeddings[s.category_id].vector for s in samples])
            return float(np.mean(np.sum((preds - targets) ** 2, axis=1)))

        assert mean_error(model) < 0.5 * mean_error(untrained)

    def test_final_loss_below_initial(self, trained):
        history = trained[3].training_loss_history
        assert history[-1] < history[0]

    def test_missing_embedding_rejected(self):
        _, samples, embeddings = make_samples(per_category=2)
        del embeddings[0]
        config = RegressorConfig(embed_dim=16, image_size=12, steps=10)
        with pytest.raises(ContractError):
            train_embedder(samples, embeddings, config)

    def test_unseen_sample_rejected(self):
        _, samples, embeddings = make_samples(per_category=2)
        config = RegressorConfig(embed_dim=16, image_size=12, steps=10)
        with pytest.raises(ContractError, match="unseen"):
            train_embedder(samples, embeddings, config, seen_ids={0, 1})

    def test_sampler_audit_sees_only_provided_categories(self):
        _, samples, embeddings = make_samples(per_category=4)
        config = RegressorConfig(embed_dim=16, image_size=12, steps=40, seed=3)
        audit = []
        train_embedder(samples, embeddings, config, seen_ids={0, 1, 2}, sampler_audit=audit)
        assert audit and all(set(batch.tolist()) <= {0, 1, 2} for batch in audit)


class TestFreeze:
    def test_hash_constant_after_freeze(self, trained):
        model = trained[3]
        freeze(model)
        before = param_bytes(model)
        # forward passes and even an attempted backward leave params alone
        images = Tensor(np.stack([trained[1][0].image]), _validate=False)
        out = model.forward(images)
        assert param_bytes(model) == before

    def test_freeze_idempotent(self, trained):
        model = freeze(trained[3])
        h = param_bytes(model)
        freeze(model)
        assert model.frozen and param_bytes(model) == h

    def test_gradient_flows_through_but_not_into_params(self, trained):
        _, samples, embeddings, model = trained
        freeze(model)
        images = Tensor(np.stack([samples[0].image]), requires_grad=True)
        target = Tensor(embeddings[samples[0].category_id].vector[None], _validate=False)
        loss = ad.tsum(ad.square(ad.sub(model.forward(images), target)))
        ad.backward(loss)
        assert images.grad is not None and np.any(images.grad != 0.0)
        for p in model.parameters():
            assert p.grad is None

    def test_input_gradient_matches_finite_differences(self, trained):
        _, samples, embeddings, model = trained
        freeze(model)
        base = np.stack([samples[0].image])
        target = embeddings[samples[0].category_id].vector[None]

        def loss_value(arr):
            with ad.no_grad():
                pred = model.forward(Tensor(arr, _validate=False))
            return float(np.sum((pred.data - target) ** 2))

        images = Tensor(base.copy(), requires_grad=True)
        loss = ad.tsum(ad.square(ad.sub(model.forward(images), Tensor(target, _validate=False))))
        ad.backward(loss)
        analytic = images.grad.reshape(-1)

        flat = base.reshape(-1)
        rng = np.random.default_rng(0)
        probes = rng.choice(flat.size, size=50, replace=False)
        h = 1e-5
        for i in probes:
            keep = flat[i]
            flat[i] = keep + h
            hi = loss_value(base)
            flat[i] = keep - h
            lo = loss_value(base)
            flat[i] = keep
            fd = (hi - lo) / (2 * h)
            assert abs(analytic[i] - fd) / max(abs(fd), 1e-6) < 1e-4


class TestPredict:
    def test_deterministic(self, trained):
        model = trained[3]
        images = trained[1][3].image[None]
        assert np.array_equal(predict(model, images), predict(model, images))

    def test_output_in_open_unit_interval(self, trained, rng):
        model = trained[3]
        for _ in range(5):
            image = rng.uniform(-1, 1, size=(1, 3, 12, 12))
            pred = predict(model, image)
            assert np.all(pred > 0.0) and np.all(pred < 1.0)

    def test_shape_mismatch_rejected(self, trained):
        with pytest.raises(DimensionError):
            predict(trained[3], np.zeros((1, 3, 8, 8)))

    def test_nearest_embedding_classification_beats_chance(self, trained):
        specs, _, embeddings, model = trained
        # held-out instances the trainer never saw
        hits = total = 0
        table = {cid: emb.vector for cid, emb in embeddings.items()}
        for spec in specs:
            for k in range(10):
                img = sd.render_sample(spec, instance_seed=900_000 + k, image_size=12).image
                pred = predict(model, img[None])[0]
                best = min(table, key=lambda c: np.sum((pred - table[c]) ** 2))
                hits += best == spec.id
                total += 1
        chance = 1.0 / len(specs)
        assert hits / total >= 3 * chance

    def test_feature_extraction_shape(self, trained):
        model = trained[3]
        feats = extract_features(model, np.stack([s.image for s in trained[1][:7]]))
        assert feats.shape == (7, 64)

    def test_head_over_extracted_features_is_forward_bitwise(self, trained, rng):
        model = trained[3]
        images = np.concatenate(
            [np.stack([s.image for s in trained[1][:20]]), rng.uniform(-1, 1, size=(9, 3, 12, 12))]
        )
        with ad.no_grad():
            shared = model.head(Tensor(extract_features(model, images), _validate=False)).data
        assert np.array_equal(shared, predict(model, images))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, trained, tmp_path):
        model = trained[3]
        path = tmp_path / "embedder.ckpt"
        save_regressor(path, model)
        loaded = load_regressor(path, image_size=12, embed_dim=16)
        for p, q in zip(model.parameters(), loaded.parameters()):
            assert np.array_equal(p.data, q.data)
        assert param_bytes(loaded) == param_bytes(model)

    def test_corrupted_file_rejected(self, trained, tmp_path):
        path = tmp_path / "embedder.ckpt"
        save_regressor(path, trained[3])
        blob = bytearray(path.read_bytes())
        blob[40] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ContractError, match="hash"):
            load_regressor(path, image_size=12, embed_dim=16)

    def test_gan_checkpoint_rejected_by_kind(self, tmp_path):
        path = tmp_path / "gan.ckpt"
        save_checkpoint(path, {"G.w1": np.zeros((2, 2))}, {"kind": "gan"})
        with pytest.raises(ContractError, match="kind 'gan', this run has 'regressor'"):
            load_regressor(path, image_size=12, embed_dim=16)
