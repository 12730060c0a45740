"""Hashed bag-of-words embeddings and the category table's persistence."""

import numpy as np
import pytest

from kggan.config import ExperimentConfig
from kggan.errors import ContractError
from kggan.hashing import fnv1a_64
from kggan import semantics as sem
from kggan import synthdata as sd


def cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


class TestEmbedText:
    def test_repeated_token_scaling(self):
        # counts scaled by 1/(1 + max_count): "red red" peaks at 2/3, "red" at 1/2
        bucket = fnv1a_64(b"red") % 64
        double = sem.embed_text("red red", dim=64)
        single = sem.embed_text("red", dim=64)
        assert double[bucket] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert single[bucket] == pytest.approx(0.5, abs=1e-15)
        assert double.max() == double[bucket] and single.max() == single[bucket]

    def test_bag_of_words_order_invariance(self):
        a = sem.embed_text("a red flower", dim=64)
        b = sem.embed_text("flower red a", dim=64)
        assert np.array_equal(a, b)

    def test_disjoint_vocabulary_low_similarity(self):
        a = sem.embed_text("crimson tulip stalk meadow dawn", dim=256)
        b = sem.embed_text("azure orchid greenhouse dusk winter", dim=256)
        assert cosine(a, b) < 0.2

    def test_range_and_not_all_zero(self):
        vec = sem.embed_text("one two three two", dim=32)
        assert vec.min() >= 0.0 and vec.max() <= 1.0
        assert vec.max() > 0.0

    @pytest.mark.parametrize("text", ["", "   ", "!!! ???", "123 456"])
    def test_no_alphabetic_token_rejected(self, text):
        with pytest.raises(ContractError):
            sem.embed_text(text, dim=16)

    def test_pure_function_across_calls(self):
        text = "a bright red bloom with banded tones"
        assert np.array_equal(sem.embed_text(text), sem.embed_text(text))


class TestCategoryEmbedding:
    def test_single_description_equals_embed_text(self):
        text = "a red flower with smooth coloring"
        got = sem.category_embedding([text], dim=64)
        assert np.array_equal(got, sem.embed_text(text, dim=64))

    def test_identical_descriptions_collapse_to_one(self):
        text = "a blue bloom with striped shading"
        one = sem.category_embedding([text], dim=64)
        five = sem.category_embedding([text] * 5, dim=64)
        assert np.max(np.abs(one - five)) < 1e-15

    def test_matches_naive_mean_oracle(self, rng):
        words = ["red", "blue", "petal", "bloom", "field", "dawn", "stripe", "tone"]
        texts = [
            " ".join(rng.choice(words, size=rng.integers(3, 8)).tolist()) for _ in range(10)
        ]
        got = sem.category_embedding(texts, dim=64)
        oracle = np.zeros(64)
        for t in texts:
            oracle = oracle + sem.embed_text(t, dim=64)
        oracle = oracle / len(texts)
        assert np.max(np.abs(got - oracle)) < 1e-12

    def test_empty_list_rejected(self):
        with pytest.raises(ContractError):
            sem.category_embedding([], dim=64)


class TestTemplateStructure:
    def test_color_change_hits_only_color_buckets(self):
        specs = sd.make_category_specs(12)
        red = next(s for s in specs if s.color == "red" and s.shape == "disk")
        blue = sd.CategorySpec(id=99, color="blue", shape=red.shape, texture=red.texture, name=red.name)
        blue.descriptions = sd.describe_category(blue, 10)
        va = sem.category_embedding(red.descriptions, dim=64)
        vb = sem.category_embedding(blue.descriptions, dim=64)
        color_buckets = {fnv1a_64(b"red") % 64, fnv1a_64(b"blue") % 64}
        differing = set(np.nonzero(np.abs(va - vb) > 1e-12)[0].tolist())
        assert differing == color_buckets

    def test_same_color_categories_more_similar_than_different_color(self):
        specs = sd.make_category_specs(12)
        embeddings = sem.build_embeddings(specs, dim=64)

        same_color, diff_color = [], []
        for a in specs:
            for b in specs:
                if a.id >= b.id or a.shape == b.shape:
                    continue
                sim = cosine(embeddings[a.id], embeddings[b.id])
                (same_color if a.color == b.color else diff_color).append(sim)
        assert min(same_color) > max(diff_color)

    def test_embeddings_in_range_and_nonzero(self):
        specs = sd.make_category_specs(12)
        embeddings = sem.build_embeddings(specs, dim=64)
        assert embeddings.shape == (12, 64)
        for spec, row in zip(specs, embeddings):
            assert np.array_equal(row, sem.category_embedding(spec.descriptions, dim=64))
            assert row.min() >= 0.0 and row.max() <= 1.0
            assert np.any(row > 0.0)


class TestPersistence:
    """The category table goes through the dataset file (``synthdata``)."""

    @staticmethod
    def _save(path, n_categories, dim, damage=None):
        """Write a dataset file whose table is built for ``n_categories`` at
        width ``dim``; ``damage`` (row, values) replaces one row first."""
        config = ExperimentConfig(
            n_categories=n_categories, images_per_category=1, image_size=8, embed_dim=dim
        )
        specs = sd.make_category_specs(n_categories)
        embeddings = sem.build_embeddings(specs, dim=dim)
        if damage:
            embeddings[damage[0]] = [float(v) for v in damage[1].split()]
        sd.save_dataset(path, sd.build_dataset(specs, 1, 8, seed=0), embeddings, config)
        return config, embeddings

    def test_embeddings_round_trip_exact(self, tmp_path):
        path = tmp_path / "dataset.ckpt"
        config, embeddings = self._save(path, 6, 64)
        _, loaded = sd.load_dataset(path, config)
        assert loaded.dtype == np.float64 and loaded.shape == (6, 64)
        assert loaded.tobytes() == embeddings.tobytes()

    @pytest.mark.parametrize(
        "cid, values, message",
        [
            (2, "0.5 " * 7 + "nan", "tensor embeddings row 2 holds a non-finite value"),
            (2, "inf " + "0.5 " * 7, "tensor embeddings row 2 holds a non-finite value"),
            (2, "-inf " * 8, "tensor embeddings row 2 holds a non-finite value"),
        ],
    )
    def test_damaged_row_rejected_naming_file_and_category(self, tmp_path, cid, values, message):
        path = tmp_path / "dataset.ckpt"
        config, _ = self._save(path, 3, 8, damage=(cid, values))
        with pytest.raises(ContractError) as excinfo:
            sd.load_dataset(path, config)
        assert str(excinfo.value) == f"{path}: {message}"
