"""Embedding regressor: training, the frozen regressor's gradients,
prediction, persistence."""

import ctypes
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kggan import autodiff as ad
from kggan import semantics as sem
from kggan import synthdata as sd
from kggan.autodiff import Tensor
from kggan.checkpoint import save_checkpoint
from kggan.config import ExperimentConfig
from kggan.errors import ContractError, DimensionError
from kggan.hashing import fnv1a_64
from kggan.regressor import (
    RegressorModel,
    extract_features,
    load_regressor,
    save_regressor,
    semantic_embedding_loss,
    train_embedder,
)


def make_samples(n_categories=3, per_category=20, image_size=12, seed=5):
    """(specs, images [n,3,S,S], category ids [n], embedding table)."""
    specs = sd.make_category_specs(n_categories)
    images = np.stack(
        [
            sd.render_sample(spec, instance_seed=seed * 10_000 + k, image_size=image_size)
            for spec in specs
            for k in range(per_category)
        ]
    )
    ids = np.repeat([spec.id for spec in specs], per_category)
    embeddings = sem.build_embeddings(specs, dim=16)
    return specs, images, ids, embeddings


def mini_config(**kw):
    """The mini samples' config: 12x12 images, 16-wide embeddings."""
    return ExperimentConfig(image_size=12, embed_dim=16, **kw)


def predict(model, images):
    """No-grad predictions for an [n,3,S,S] batch, rounded to float32 as
    ``train_embedder`` and ``extract_features`` round it."""
    with ad.no_grad():
        rows = np.asarray(images, dtype=np.float32).reshape(len(images), -1)
        return model.forward(Tensor(rows)).data


def param_bytes(model):
    """Every parameter's bytes, in order: equal iff the parameters are."""
    return b"".join(p.data.tobytes() for p in model.parameters())


TRAINED_CONFIG = mini_config(embedder_steps=600, embedder_seed=1)


@pytest.fixture(scope="module")
def trained():
    specs, images, ids, embeddings = make_samples()
    model = train_embedder(images, ids, embeddings, TRAINED_CONFIG)
    return specs, images, ids, embeddings, model


class TestTrainEmbedder:
    def test_single_category_constant_images_converges(self):
        spec = sd.make_category_specs(1)[0]
        image = sd.render_sample(spec, instance_seed=0, image_size=12)
        embeddings = sem.build_embeddings([spec], dim=16)
        config = mini_config(embedder_steps=500, embedder_plateau=0, embedder_seed=0)
        model = train_embedder(np.stack([image] * 8), np.zeros(8, dtype=int), embeddings, config)
        history = model.training_loss_history
        assert history[-1] < 1e-3 * history[0]

    def test_zero_steps_returns_initialized_model(self):
        _, images, ids, embeddings = make_samples(per_category=4)
        config = mini_config(embedder_steps=0, embedder_seed=2)
        model = train_embedder(images, ids, embeddings, config)
        assert model.training_loss_history == []
        fresh = RegressorModel(12, 16, np.random.default_rng(2))
        for p, q in zip(model.parameters(), fresh.parameters()):
            assert np.array_equal(p.data, q.data)

    def test_beats_untrained_model(self, trained):
        _, images, ids, embeddings, model = trained
        untrained = RegressorModel(12, 16, np.random.default_rng(77))

        def mean_error(m):
            preds = predict(m, images)
            targets = embeddings[ids]
            return float(np.mean(np.sum((preds - targets) ** 2, axis=1)))

        assert mean_error(model) < 0.5 * mean_error(untrained)

    def test_final_loss_below_initial(self, trained):
        history = trained[4].training_loss_history
        assert history[-1] < history[0]

    def test_sampler_audit_sees_only_provided_categories(self, monkeypatch):
        _, images, ids, embeddings = make_samples(per_category=4)
        images = images.astype(np.float32)  # as a dataset holds them, and the embedder reads them
        owner = {image.tobytes(): int(cid) for image, cid in zip(images, ids)}
        assert len(owner) == len(ids)
        provided = np.isin(ids, [0, 2])
        batches = []
        forward = RegressorModel.forward

        def spy(model, x):
            batches.append(x.data.copy())
            return forward(model, x)

        monkeypatch.setattr(RegressorModel, "forward", spy)
        config = mini_config(embedder_steps=40, embedder_batch=5, embedder_seed=3)
        train_embedder(images[provided], ids[provided], embeddings, config)
        assert len(batches) == 40
        for batch in batches:
            assert len(batch) == 5
            assert {owner.get(image.tobytes()) for image in batch} <= {0, 2}


GOLDEN_EMBEDDER_LOG = Path(__file__).parent / "golden" / "embedder_mini_losses.csv"


def bundled_openblas():
    """numpy's bundled OpenBLAS (``numpy.libs/libscipy_openblas64_*.so``),
    or None where none exports the thread-count setter."""
    libs = (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so")
    for path in sorted(libs):
        lib = ctypes.CDLL(str(path))
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            lib.scipy_openblas_set_num_threads64_.argtypes = (ctypes.c_int,)
            lib.scipy_openblas_set_num_threads64_.restype = None
            lib.scipy_openblas_get_num_threads64_.argtypes = ()
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            return lib
    return None


class TestEmbedderGolden:
    def test_training_matches_golden_bitwise(self, trained):
        """``train_embedder`` on the mini samples writes the loss history,
        and reaches the parameters (the ``params`` hash line), recorded in
        the golden file when the regressor came to train in float32."""
        model = trained[4]
        lines = [f"# params {fnv1a_64(param_bytes(model)):016x}", "step,loss"]
        lines += [f"{step},{loss!r}" for step, loss in enumerate(model.training_loss_history)]
        assert "\n".join(lines) + "\n" == GOLDEN_EMBEDDER_LOG.read_text(encoding="utf-8")

    def test_training_is_the_same_at_one_and_two_blas_threads(self):
        """The mini embedder's parameters, trained with numpy's OpenBLAS set
        to one thread and then to two in this process, are the same bytes,
        so the golden above holds whatever count the machine gives. (In
        float64 they were not: one thread rounded the first forward matmul
        differently.) The count is restored afterwards."""
        lib = bundled_openblas()
        if lib is None:
            pytest.skip("no numpy.libs/libscipy_openblas64_*.so exports scipy_openblas_set_num_threads64_")
        _, images, ids, embeddings = make_samples()
        before = lib.scipy_openblas_get_num_threads64_()
        trained = []
        try:
            for threads in (1, 2):
                lib.scipy_openblas_set_num_threads64_(threads)
                trained.append(param_bytes(train_embedder(images, ids, embeddings, TRAINED_CONFIG)))
        finally:
            lib.scipy_openblas_set_num_threads64_(before)
        assert trained[0] == trained[1]


class TestFreeze:
    """Frozen means no optimizer holds the parameters: a backward pass
    passed only the input flows through the model but computes nothing
    into its parameters and changes none of them."""

    def test_hash_constant_after_freeze(self, trained):
        _, images, ids, embeddings, model = trained
        before = param_bytes(model)
        images = Tensor(images[:2].reshape(2, -1))
        loss = semantic_embedding_loss(model.forward(images), Tensor(embeddings[ids[:2]]))
        ad.backward(loss, [images])
        assert param_bytes(model) == before

    def test_gradient_flows_through_but_not_into_params(self, trained):
        _, images, ids, embeddings, model = trained
        images = Tensor(images[:1].reshape(1, -1))
        target = Tensor(embeddings[ids[0]][None])
        loss = semantic_embedding_loss(model.forward(images), target)
        param_ids = {id(p) for p in model.parameters()}
        nodes = ad.get_tape().nodes
        products = []
        for i, (out, inputs, backward_fn) in enumerate(nodes):

            def spy(g, inputs=inputs, backward_fn=backward_fn):
                grads = backward_fn(g)
                products.extend(gi for t, gi in zip(inputs, grads) if id(t) in param_ids)
                return grads

            nodes[i] = (out, inputs, spy)
        (grad,) = ad.backward(loss, [images])
        assert grad is not None and np.any(grad != 0.0)
        assert len(products) == len(param_ids) and all(g is None for g in products)

    def test_input_gradient_matches_finite_differences(self, trained):
        _, images, ids, embeddings, model = trained
        base = images[:1].reshape(1, -1).copy()
        target = embeddings[ids[0]][None]

        def loss_value(arr):
            with ad.no_grad():
                pred = model.forward(Tensor(arr))
            return float(np.sum((pred.data - target) ** 2))

        images = Tensor(base.copy())
        loss = semantic_embedding_loss(model.forward(images), Tensor(target))
        (grad,) = ad.backward(loss, [images])
        analytic = grad.reshape(-1)

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
        model = trained[4]
        images = trained[1][3:4]
        assert np.array_equal(predict(model, images), predict(model, images))

    def test_output_in_open_unit_interval(self, trained, rng):
        model = trained[4]
        for _ in range(5):
            image = rng.uniform(-1, 1, size=(1, 3, 12, 12))
            pred = predict(model, image)
            assert np.all(pred > 0.0) and np.all(pred < 1.0)

    def test_shape_mismatch_rejected(self, trained):
        with pytest.raises(DimensionError):
            predict(trained[4], np.zeros((1, 3, 8, 8)))
        # the model takes rows only, not the dataset's [b, 3, S, S] layout
        with pytest.raises(DimensionError, match=r"input \(1, 3, 12, 12\) vs weight \(432, 128\)"):
            trained[4].forward(Tensor(np.zeros((1, 3, 12, 12))))

    def test_nearest_embedding_classification_beats_chance(self, trained):
        specs, _, _, embeddings, model = trained
        # held-out instances the trainer never saw
        hits = total = 0
        for spec in specs:
            for k in range(10):
                img = sd.render_sample(spec, instance_seed=900_000 + k, image_size=12)
                pred = predict(model, img[None])[0]
                best = int(np.argmin(np.sum((pred - embeddings) ** 2, axis=1)))
                hits += best == spec.id
                total += 1
        chance = 1.0 / len(specs)
        assert hits / total >= 3 * chance

    def test_feature_extraction_shape(self, trained):
        model = trained[4]
        feats = extract_features(model, trained[1][:7])
        assert feats.shape == (7, 64)

    def test_forward_is_the_output_layer_over_extracted_features(self, trained, rng):
        model = trained[4]
        images = np.concatenate([trained[1][:20], rng.uniform(-1, 1, size=(9, 3, 12, 12))])
        with ad.no_grad():
            shared = ad.sigmoid(ad.affine(Tensor(extract_features(model, images)), model.w3, model.b3)).data
        assert np.array_equal(shared, predict(model, images))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, trained, tmp_path):
        model = trained[4]
        path = tmp_path / "embedder.ckpt"
        save_regressor(path, model, TRAINED_CONFIG)
        loaded = load_regressor(path, TRAINED_CONFIG)
        for p, q in zip(model.parameters(), loaded.parameters()):
            assert np.array_equal(p.data, q.data)
        assert param_bytes(loaded) == param_bytes(model)

    def test_corrupted_file_rejected(self, trained, tmp_path):
        path = tmp_path / "embedder.ckpt"
        save_regressor(path, trained[4], TRAINED_CONFIG)
        blob = bytearray(path.read_bytes())
        blob[40] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ContractError, match="hash"):
            load_regressor(path, TRAINED_CONFIG)

    def test_gan_checkpoint_rejected_by_kind(self, tmp_path):
        path = tmp_path / "gan.ckpt"
        save_checkpoint(path, {"G.w1": np.zeros((2, 2))}, {"kind": "gan"})
        with pytest.raises(ContractError, match="kind 'gan', this run has 'regressor'"):
            load_regressor(path, TRAINED_CONFIG)

    @pytest.mark.parametrize(
        "field, value",
        [("embedder_steps", 601), ("split_seed", 7), ("n_unseen", 2), ("data_seed", 0),
         ("images_per_category", 9)],
    )
    def test_other_config_rejected_naming_the_field(self, trained, tmp_path, field, value):
        path = tmp_path / "embedder.ckpt"
        save_regressor(path, trained[4], TRAINED_CONFIG)
        want = getattr(TRAINED_CONFIG, field)
        with pytest.raises(ContractError, match=f"has config.{field} {want}, this run has {value}$"):
            load_regressor(path, replace(TRAINED_CONFIG, **{field: value}))
