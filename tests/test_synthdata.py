"""Procedural dataset: rendering, descriptions, augmentations, splits."""

import re
from dataclasses import replace

import numpy as np
import pytest

from kggan.checkpoint import load_checkpoint, save_checkpoint
from kggan.config import ExperimentConfig
from kggan.errors import ConfigError, ContractError
from kggan import synthdata as sd
from kggan.semantics import build_embeddings


def read_descriptions(path):
    """category id -> description lines of a ``save_descriptions`` file."""
    by_category, current = {}, None
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#category "):
            current = int(line.split()[1])
            by_category[current] = []
        elif current is not None and line.strip() and not line.startswith("#"):
            by_category[current].append(line)
    return by_category


@pytest.fixture
def specs():
    return sd.make_category_specs(12)


@pytest.fixture
def red_disk(specs):
    spec = next(s for s in specs if s.shape == "disk" and s.color == "red")
    return spec


class TestRenderSample:
    def test_mean_interior_color_near_base(self, specs):
        # foreground heuristic stands in for the exact interior mask
        for spec in specs:
            mean_color = sd.mean_foreground_color(sd.render_sample(spec, instance_seed=5))
            assert np.max(np.abs(mean_color - np.asarray(sd.PALETTE[spec.color]))) < 0.1

    def test_deterministic(self, red_disk):
        a = sd.render_sample(red_disk, instance_seed=11)
        b = sd.render_sample(red_disk, instance_seed=11)
        assert a.tobytes() == b.tobytes()

    def test_different_seeds_differ(self, red_disk):
        a = sd.render_sample(red_disk, instance_seed=1)
        b = sd.render_sample(red_disk, instance_seed=2)
        assert not np.array_equal(a, b)

    def test_range_and_shape(self, specs):
        for spec in specs[:4]:
            img = sd.render_sample(spec, instance_seed=3, image_size=16)
            assert img.shape == (3, 16, 16)
            assert img.min() >= -1.0 and img.max() <= 1.0

    def test_small_image_rejected(self, red_disk):
        with pytest.raises(ConfigError):
            sd.render_sample(red_disk, instance_seed=0, image_size=7)

    def test_monte_carlo_mean_matches_jitter_oracle(self, specs):
        # smooth spec: texture factor is exactly 1, so the expected mean
        # foreground color is E[clip(base + U(-0.05, 0.05))] = base
        spec = next(s for s in specs if s.texture == "smooth" and s.color == "red")
        oracle_rng = np.random.default_rng(99)
        jitters = oracle_rng.uniform(-sd.HUE_JITTER, sd.HUE_JITTER, size=(10000, 3))
        expected = np.clip(np.asarray(sd.PALETTE[spec.color]) + jitters, 0.0, 1.0).mean(axis=0)

        rendered = np.stack(
            [
                sd.mean_foreground_color(sd.render_sample(spec, instance_seed=k))
                for k in range(100)
            ]
        ).mean(axis=0)
        assert np.max(np.abs(rendered - expected)) < 0.05


def loop_mean_foreground_color(image):
    """Per-image reference: mean over the selected foreground pixels,
    computed in float64 whatever the image's dtype (a generated draw is
    float32)."""
    values01 = (np.asarray(image, dtype=np.float64) + 1.0) / 2.0
    mask = values01.max(axis=0) > 0.3
    if not mask.any():
        mask = np.ones(image.shape[1:], dtype=bool)
    return values01[:, mask].mean(axis=1)


class TestMeanForegroundColorBatch:
    """One batched pass against the per-image loop. The sums run in
    another order, so values agree to rounding only: the 1e-12 bound is
    far above 256 pixels times float64 eps (5.7e-14). The dominant
    channel must agree exactly."""

    TOL = 1e-12

    def check(self, images):
        batched = sd.mean_foreground_color(images)
        loop = np.stack([loop_mean_foreground_color(img) for img in images])
        assert batched.shape == (len(images), 3)
        assert np.max(np.abs(batched - loop)) <= self.TOL
        assert np.array_equal(np.argmax(batched, axis=1), np.argmax(loop, axis=1))
        for img, want in zip(images, loop):
            assert np.max(np.abs(sd.mean_foreground_color(img) - want)) <= self.TOL

    def test_dataset_images(self, specs):
        dataset = sd.build_dataset(specs, images_per_category=10, image_size=16, seed=42)
        self.check(dataset.images)

    def test_generated_draw(self, specs):
        from kggan import gan

        model = gan.GanModel(
            16, len(specs), gan.CONDITION_ONE_HOT, np.random.default_rng(8),
            z_dim=16, g_hidden=128, d_hidden=128, feat_dim=64,
        )
        for spec in specs[:3]:
            self.check(gan.sample_images(model, spec.id, 256, np.eye(len(specs)), seed=105))

    def test_all_background_image_counts_every_pixel(self, rng):
        images = rng.uniform(-1, 1, size=(5, 3, 16, 16))
        # no channel above the threshold anywhere
        images[2] = np.array([-0.9, -0.8, -0.95])[:, None, None]
        self.check(images)
        assert np.allclose(sd.mean_foreground_color(images[2]), [0.05, 0.1, 0.025])


class TestDescribeCategory:
    def test_single_description_contains_color_word(self, red_disk):
        texts = sd.describe_category(red_disk, 1)
        assert len(texts) == 1 and "red" in texts[0]

    def test_ten_descriptions_all_mention_color(self, red_disk):
        texts = sd.describe_category(red_disk, 10)
        assert len(texts) == 10
        assert all("red" in t for t in texts)
        assert len(set(texts)) >= 2

    def test_color_only_difference_changes_only_color_tokens(self, specs):
        a = next(s for s in specs if s.shape == "disk" and s.color == "red")
        b = sd.CategorySpec(id=99, color="blue", shape=a.shape, texture=a.texture, name=a.name)
        import re

        tokens = lambda text: re.findall(r"[a-z0-9]+", text.lower())
        for ta, tb in zip(sd.describe_category(a, 10), sd.describe_category(b, 10)):
            diff_a = {w for w in tokens(ta) if w not in tokens(tb)}
            diff_b = {w for w in tokens(tb) if w not in tokens(ta)}
            assert diff_a == {"red"} and diff_b == {"blue"}

    def test_zero_descriptions_rejected(self, red_disk):
        with pytest.raises(ContractError):
            sd.describe_category(red_disk, 0)


class TestMakeSplit:
    def test_boundary_single_seen(self):
        plan = sd.make_split(list(range(5)), n_unseen=4, seed=0)
        assert len(plan.seen_ids) == 1 and len(plan.unseen_ids) == 4

    def test_deterministic(self):
        a = sd.make_split(list(range(12)), n_unseen=3, seed=7)
        b = sd.make_split(list(range(12)), n_unseen=3, seed=7)
        assert a.seen_ids == b.seen_ids and a.unseen_ids == b.unseen_ids

    def test_partition_properties(self):
        plan = sd.make_split(list(range(12)), n_unseen=3, seed=3)
        assert plan.seen_ids & plan.unseen_ids == set()
        assert plan.seen_ids | plan.unseen_ids == set(range(12))

    def test_unseen_rate_matches_binomial_oracle(self):
        n, k, trials = 12, 3, 100
        counts = np.zeros(n)
        for seed in range(trials):
            plan = sd.make_split(list(range(n)), n_unseen=k, seed=seed)
            for cid in plan.unseen_ids:
                counts[cid] += 1
        rate = k / n
        sigma = np.sqrt(rate * (1 - rate) / trials)
        assert np.all(np.abs(counts / trials - rate) <= 3 * sigma)

    @pytest.mark.parametrize("n_unseen", [0, 12])
    def test_out_of_range_rejected(self, n_unseen):
        with pytest.raises(ConfigError):
            sd.make_split(list(range(12)), n_unseen=n_unseen, seed=0)


class TestDatasetInvariants:
    def test_dominant_channel_matches_spec_for_every_category(self):
        specs = sd.make_category_specs(12)
        dataset = sd.build_dataset(specs, images_per_category=10, image_size=16, seed=42)
        for spec in specs:
            rows = dataset.rows_of([spec.id])
            mean_color = np.stack(
                [sd.mean_foreground_color(dataset.images[i]) for i in rows]
            ).mean(axis=0)
            assert int(np.argmax(mean_color)) == int(np.argmax(sd.PALETTE[spec.color]))

    def test_category_ids_unique_and_descriptions_nonempty(self):
        specs = sd.make_category_specs(12)
        assert len({s.id for s in specs}) == 12
        for s in specs:
            assert len(s.descriptions) == 10
            assert all(s.color in d for d in s.descriptions)

    def test_every_recipe_is_a_distinct_look(self):
        """The 36 ids are the 3 x 4 x 3 (colour, shape, texture) recipes. Ids
        0..11, all that the default config uses, pair texture index with
        colour index, so the default dataset's bytes stay as pinned."""
        specs = sd.make_category_specs(36)
        looks = [(s.color, s.shape, s.texture) for s in specs]
        assert len(set(looks)) == 36
        colors, textures = list(sd.PALETTE), list(sd.TEXTURES)
        assert looks[:12] == [(colors[c % 3], sd.SHAPES[c // 3], textures[c % 3]) for c in range(12)]

    def test_rows_of_is_each_categorys_rows_in_row_order(self):
        """A set, a list, an array or one id: the rows where ``category_ids``
        is one of them, in row order, whatever order the ids come in."""
        ids = np.array([2, 0, 1, 2, 3, 0, 1, 3, 2], dtype=np.int64)
        dataset = sd.Dataset(np.zeros((ids.size, 3, 8, 8)), ids, [])
        for wanted in ({2, 0}, [3, 1], np.array([1, 0, 3]), [2], set()):
            rows = [np.nonzero(ids == c)[0] for c in wanted]
            expected = np.sort(np.concatenate(rows)) if rows else np.zeros(0, dtype=np.int64)
            assert dataset.rows_of(wanted).tolist() == expected.tolist()


class TestPersistence:
    CONFIG = ExperimentConfig(
        n_categories=4, images_per_category=3, image_size=8, descriptions_per_category=5,
        embed_dim=16, data_seed=9,
    )

    def _save(self, path):
        specs = sd.make_category_specs(4, 5)
        dataset = sd.build_dataset(specs, 3, 8, seed=9)
        sd.save_dataset(path, dataset, build_embeddings(specs, dim=16), self.CONFIG)
        return dataset

    def test_dataset_round_trip(self, tmp_path):
        """The file gives back the built images, float32 both, the category
        ids and the category table, bit for bit."""
        path = tmp_path / "dataset.ckpt"
        built = self._save(path)
        dataset, embeddings = sd.load_dataset(path, self.CONFIG)
        assert built.images.dtype == dataset.images.dtype == np.float32
        assert dataset.images.tobytes() == built.images.tobytes()
        assert np.array_equal(dataset.category_ids, built.category_ids)
        assert dataset.category_ids.dtype == built.category_ids.dtype == np.int64
        table = build_embeddings(built.specs, dim=16)
        assert embeddings.tobytes() == table.tobytes()
        assert [s.descriptions for s in dataset.specs] == [s.descriptions for s in built.specs]

    def test_sample_category_ids_are_the_render_order(self):
        specs = sd.make_category_specs(3)
        assert sd.sample_category_ids(specs, 2).tolist() == [0, 0, 1, 1, 2, 2]
        dataset = sd.build_dataset(specs, 2, 8, seed=1)
        for k, cid in enumerate(dataset.category_ids):
            expected = sd.render_sample(specs[cid], instance_seed=1 * 1_000_003 + k % 2, image_size=8)
            assert dataset.images[k].tobytes() == expected.astype(np.float32).tobytes()

    def test_dataset_rerun_byte_identical(self, tmp_path):
        self._save(tmp_path / "a.ckpt")
        self._save(tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    @pytest.mark.parametrize(
        "field, value",
        [("n_categories", 5), ("images_per_category", 2), ("image_size", 9),
         ("descriptions_per_category", 4), ("embed_dim", 8), ("data_seed", 10)],
    )
    def test_other_config_rejected_naming_file_and_field(self, tmp_path, field, value):
        path = tmp_path / "dataset.ckpt"
        self._save(path)
        config = replace(self.CONFIG, **{field: value})
        want = getattr(self.CONFIG, field)
        with pytest.raises(ContractError) as excinfo:
            sd.load_dataset(path, config)
        assert str(excinfo.value) == (
            f"{path}: checkpoint has config.{field} {want!r}, this run has {value!r}"
        )

    @pytest.mark.parametrize(
        "name, row, message",
        [("images", 7, "tensor images row 7 holds a non-finite value"),
         ("embeddings", 2, "tensor embeddings row 2 holds a non-finite value")],
        ids=["images-7-sample 7", "embeddings-2-category 2"],
    )
    def test_non_finite_value_rejected_naming_the_row(self, tmp_path, name, row, message):
        # rewritten whole, so the file's digest is valid and only the value is wrong
        path = tmp_path / "dataset.ckpt"
        self._save(path)
        state, metadata = load_checkpoint(path)
        state[name][row].flat[-1] = np.nan
        save_checkpoint(path, state, metadata)
        with pytest.raises(ContractError, match=f"^{re.escape(str(path))}: {message}$"):
            sd.load_dataset(path, self.CONFIG)

    def test_descriptions_round_trip(self, tmp_path):
        specs = sd.make_category_specs(3)
        path = tmp_path / "descriptions.txt"
        sd.save_descriptions(path, specs)
        loaded = read_descriptions(path)
        for spec in specs:
            assert loaded[spec.id] == spec.descriptions
