"""Frechet suite, color fidelity and the FID table."""

import numpy as np
import pytest

from kggan import synthdata as sd
from kggan.errors import ContractError
from kggan.evaluation import (
    GaussianStats,
    color_fidelity,
    feature_stats,
    fid_report,
    format_fid_table,
    frechet_distance,
)
from kggan.regressor import RegressorModel, extract_features

IMG = 8
EMB = 16


@pytest.fixture(scope="module")
def extractor():
    return RegressorModel(IMG, EMB, np.random.default_rng(13))


@pytest.fixture(scope="module")
def tiny_world():
    specs = sd.make_category_specs(4)
    dataset = sd.build_dataset(specs, images_per_category=12, image_size=IMG, seed=3)
    split = sd.make_split([s.id for s in specs], n_unseen=1, seed=2)
    return specs, dataset, split


def image_stats(images, extractor):
    return feature_stats(extract_features(extractor, images))


def category_fids(fakes_of, dataset, split, extractor):
    """Per-category FID through the calls ``cli.evaluate_checkpoint``'s
    loop makes: ``fakes_of(cid)`` against the category's real images."""
    return {
        cid: frechet_distance(
            image_stats(fakes_of(cid), extractor),
            image_stats(dataset.images[dataset.rows_of([cid])], extractor),
        )
        for cid in sorted(split.seen_ids | split.unseen_ids)
    }


def loop_color_fidelity(images, rgb):
    """Per-image reference for color_fidelity."""
    want = int(np.argmax(np.asarray(rgb)))
    return sum(1 for img in images if int(np.argmax(sd.mean_foreground_color(img))) == want) / len(images)


class TestFeatureStats:
    def test_identical_images_zero_covariance(self, extractor, rng):
        image = rng.uniform(-1, 1, size=(3, IMG, IMG))
        stats = image_stats(np.stack([image] * 6), extractor)
        assert np.max(np.abs(stats.covariance)) < 1e-18

    def test_two_point_statistics(self, extractor, rng):
        images = rng.uniform(-1, 1, size=(2, 3, IMG, IMG))
        stats = image_stats(images, extractor)
        feats = extract_features(extractor, images)
        a, b = feats[0], feats[1]
        assert np.allclose(stats.mean, (a + b) / 2.0)
        # unbiased two-point covariance: outer(a-b)/2
        assert np.allclose(stats.covariance, np.outer(a - b, a - b) / 2.0)

    def test_recovers_known_gaussian_at_feature_level(self, rng):
        mean = rng.uniform(-1, 1, size=5)
        scale = np.diag([1.0, 0.5, 2.0, 0.8, 1.5])
        draws = rng.standard_normal((500, 5)) @ scale + mean
        stats = feature_stats(draws)
        cov_true = scale @ scale
        se_mean = np.sqrt(np.diag(cov_true) / 500)
        assert np.all(np.abs(stats.mean - mean) <= 3 * se_mean)
        se_cov = np.sqrt((np.outer(np.diag(cov_true), np.diag(cov_true)) + cov_true**2) / 500)
        assert np.all(np.abs(stats.covariance - cov_true) <= 4 * se_cov)

    def test_covariance_symmetric(self, extractor, rng):
        stats = image_stats(rng.uniform(-1, 1, size=(10, 3, IMG, IMG)), extractor)
        assert np.max(np.abs(stats.covariance - stats.covariance.T)) < 1e-10

    def test_float32_features_give_float64_statistics(self, extractor, rng):
        """The regressor's features are float32; their statistics are
        float64, bit for bit those of the features widened first."""
        features = extract_features(extractor, rng.uniform(-1, 1, size=(10, 3, IMG, IMG)))
        assert features.dtype == np.float32
        stats = feature_stats(features)
        widened = feature_stats(features.astype(np.float64))
        assert stats.mean.dtype == stats.covariance.dtype == np.float64
        assert stats.mean.tobytes() == widened.mean.tobytes()
        assert stats.covariance.tobytes() == widened.covariance.tobytes()


class TestFrechetDistance:
    def test_identical_gaussians_zero(self, rng):
        stats = feature_stats(rng.standard_normal((50, 6)))
        assert frechet_distance(stats, stats) < 1e-8

    def test_equal_covariance_reduces_to_mean_distance(self, rng):
        cov = np.eye(4)
        mu1 = rng.standard_normal(4)
        delta = rng.standard_normal(4)
        p = GaussianStats(mean=mu1, covariance=cov)
        q = GaussianStats(mean=mu1 + delta, covariance=cov.copy())
        assert abs(frechet_distance(p, q) - float(delta @ delta)) < 1e-10

    def test_one_dimensional_closed_form(self, rng):
        for _ in range(20):
            mu1, mu2 = rng.standard_normal(2) * 3
            s1, s2 = rng.uniform(0.1, 2.0, size=2)
            p = GaussianStats(np.array([mu1]), np.array([[s1**2]]))
            q = GaussianStats(np.array([mu2]), np.array([[s2**2]]))
            expected = (mu1 - mu2) ** 2 + (s1 - s2) ** 2
            assert abs(frechet_distance(p, q) - expected) < 1e-10

    def test_symmetry(self, rng):
        for _ in range(5):
            p = feature_stats(rng.standard_normal((40, 5)) * rng.uniform(0.5, 2))
            q = feature_stats(rng.standard_normal((40, 5)) + rng.uniform(-1, 1))
            assert abs(frechet_distance(p, q) - frechet_distance(q, p)) < 1e-8

    def test_nonnegative(self, rng):
        for _ in range(10):
            p = feature_stats(rng.standard_normal((30, 4)))
            q = feature_stats(rng.standard_normal((30, 4)))
            assert frechet_distance(p, q) >= 0.0

    @pytest.mark.parametrize("side", ["p", "q"])
    def test_nan_feature_rejected(self, rng, side):
        """A NaN feature is the one bad input left to the statistics; it
        reaches the covariance, and linalg refuses it, on either side."""
        feats = {"p": rng.standard_normal((20, 4)), "q": rng.standard_normal((20, 4))}
        feats[side][3, 1] = np.nan
        p, q = feature_stats(feats["p"]), feature_stats(feats["q"])
        with pytest.raises(ContractError, match="non-finite entries"):
            frechet_distance(p, q)

    def test_noise_increases_distance_monotonically(self, extractor, rng):
        clean = rng.uniform(-0.6, 0.6, size=(64, 3, IMG, IMG))
        base = image_stats(clean, extractor)
        distances = []
        for sigma in (0.05, 0.1, 0.2):
            noisy = np.clip(clean + rng.standard_normal(clean.shape) * sigma, -1, 1)
            distances.append(frechet_distance(image_stats(noisy, extractor), base))
        assert distances[0] < distances[1] < distances[2]


class TestPerCategoryFid:
    def test_pass_through_generator_scores_near_zero(self, tiny_world, extractor):
        _, dataset, split = tiny_world

        # hand back exactly the category's real images
        def reals(cid):
            return dataset.images[dataset.rows_of([cid])]

        report = fid_report(category_fids(reals, dataset, split, extractor), split)
        assert set(report.per_category) == split.seen_ids | split.unseen_ids
        for value in report.per_category.values():
            assert value < 1e-6

    def test_disjoint_categories_score_worse_than_self(self, tiny_world, extractor):
        _, dataset, split = tiny_world
        ids = sorted(split.seen_ids | split.unseen_ids)
        a, b = ids[0], ids[1]

        def swapped(cid):
            source = b if cid == a else (a if cid == b else cid)
            return dataset.images[np.resize(dataset.rows_of([source]), 24)]

        def honest(cid):
            return dataset.images[np.resize(dataset.rows_of([cid]), 24)]

        honest_fids = category_fids(honest, dataset, split, extractor)
        swapped_fids = category_fids(swapped, dataset, split, extractor)
        assert swapped_fids[a] > honest_fids[a]
        assert swapped_fids[b] > honest_fids[b]

    def test_averages_match_naive_mean_oracle(self, tiny_world, extractor, rng):
        _, dataset, split = tiny_world

        def noise(cid):
            return rng.uniform(-1, 1, size=(16, 3, IMG, IMG))

        report = fid_report(category_fids(noise, dataset, split, extractor), split)
        seen_vals = [report.per_category[c] for c in sorted(split.seen_ids)]
        unseen_vals = [report.per_category[c] for c in sorted(split.unseen_ids)]
        assert abs(report.seen_avg - sum(seen_vals) / len(seen_vals)) < 1e-12
        assert abs(report.unseen_avg - sum(unseen_vals) / len(unseen_vals)) < 1e-12


class TestColorFidelity:
    def test_solid_base_color_matches_perfectly(self, tiny_world):
        specs, _, _ = tiny_world
        for spec in specs:
            color = np.asarray(sd.PALETTE[spec.color])
            img = np.ones((3, IMG, IMG)) * (2.0 * color[:, None, None] - 1.0)
            assert color_fidelity(np.stack([img] * 6), spec.color) == 1.0

    def test_wrong_channel_scores_zero(self, tiny_world):
        specs, _, _ = tiny_world
        for spec in specs:
            want = int(np.argmax(sd.PALETTE[spec.color]))
            color = np.full(3, 0.1)
            color[(want + 1) % 3] = 0.9
            img = np.ones((3, IMG, IMG)) * (2.0 * color[:, None, None] - 1.0)
            assert color_fidelity(np.stack([img] * 6), spec.color) == 0.0

    def test_real_dataset_samples_match(self, tiny_world):
        specs, dataset, _ = tiny_world
        for spec in specs:
            images = dataset.images[np.resize(dataset.rows_of([spec.id]), 10)]
            assert color_fidelity(images, spec.color) == 1.0

    def test_matches_per_image_loop(self, tiny_world):
        from kggan import gan

        specs, dataset, _ = tiny_world
        model = gan.GanModel(
            IMG, len(specs), gan.CONDITION_ONE_HOT, np.random.default_rng(4),
            z_dim=16, g_hidden=128, d_hidden=128, feat_dim=64,
        )
        for spec in specs:
            for images in (
                dataset.images[dataset.rows_of([spec.id])],
                gan.sample_images(model, spec.id, 64, np.eye(len(specs)), seed=9),
            ):
                # each base color tried, so draws score between 0 and 1
                for other in specs:
                    want = loop_color_fidelity(images, sd.PALETTE[other.color])
                    assert color_fidelity(images, other.color) == want


class TestReportFormatting:
    def test_table_layout(self):
        text = format_fid_table(
            [
                ("baseline_full_data", "one_hot", "no", 0.5, 0.61),
                ("kggan_full", "semantic_embedding", "yes", 0.1385, 0.1386),
            ],
            header_lines=["config ff", "seed 3"],
        )
        lines = text.strip().splitlines()
        assert lines[0] == "# config ff"
        assert "Method" in lines[2] and "Unseen FID" in lines[2]
        assert "0.1386" in lines[-1] and "yes" in lines[-1]
