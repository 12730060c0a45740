"""Matrix square root and trace-sqrt product against oracles, plus the
outputs of the cyclic Jacobi solver they replaced.

The Jacobi solver was deleted once LAPACK (numpy.linalg.eigh) took over;
the JACOBI_* constants are its outputs, recorded before the deletion.
"""

import numpy as np
import pytest

from kggan import gan, semantics, synthdata
from kggan.config import ExperimentConfig
from kggan.errors import ContractError
from kggan.evaluation import feature_stats, fid_report, frechet_distance
from kggan.linalg import sym_sqrt, trace_sqrt_product
from kggan.regressor import RegressorModel, extract_features

# trace_sqrt_product on low_rank_cov pairs, seed 1000 + rank, dimension 64
JACOBI_TRACE_SQRT = {
    64: 2799.0455096996493,
    32: 1133.0563229505356,
    16: 413.34758756525946,
    8: 142.1339698726448,
}
# condition_preconditioner on the default config's embeddings: Frobenius
# norm, trace, and the upper triangle of P.T @ M @ P for three seeded probes
JACOBI_PRECOND_NORM = 8.198035875000315
JACOBI_PRECOND_TRACE = 24.86801047153486
JACOBI_PRECOND_QUAD = [
    33.5667628177198,
    7.521752729404965,
    10.710146732963917,
    10.570177299483216,
    5.583637573490815,
    24.370221194714798,
]
# per-category FID and its averages on the fixture of test_per_category_fid_pinned
JACOBI_FID = {
    0: 16.113080556298424,
    1: 14.540888161301034,
    2: 20.27755363451987,
    3: 16.129759637322937,
}
JACOBI_FID_SEEN = 17.506797942713742
JACOBI_FID_UNSEEN = 14.540888161301034


def random_psd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return a @ a.T


def low_rank_cov(rng, dim, rank, n=256):
    feats = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, dim))
    centered = feats - feats.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    return (cov + cov.T) / 2.0


def ill_conditioned_cov(rng, dim, lo, hi):
    """Random rotation of eigenvalues logspaced from 10**lo to 10**hi."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    cov = (q * np.logspace(lo, hi, dim)) @ q.T
    return (cov + cov.T) / 2.0


def rel_err(got, want):
    return abs(got - want) / abs(want)


def sqrt_roundoff(null_dim, scale):
    """Solver-dependent part of a tr-sqrt on a rank-deficient matrix.

    Each of the ``null_dim`` null directions carries a round-off
    eigenvalue near eps * scale, where scale bounds the largest
    eigenvalue, and adds its square root to the trace; two solvers
    disagree by up to this much.
    """
    return null_dim * np.sqrt(np.finfo(np.float64).eps * scale)


class TestJacobi:
    """The checks every solve makes first, and the root against its square.

    The class keeps the name of the Jacobi solver these checks were first
    written for; they now run through ``sym_sqrt``, the one caller of the
    LAPACK eigendecomposition.
    """

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 64])
    def test_matches_eigh_oracle(self, rng, n):
        a = random_psd(rng, n) / n
        root = sym_sqrt(a)
        assert np.max(np.abs(root @ root - a)) < 1e-9
        # the root's eigenvalues are the square roots of the oracle's
        want = np.sqrt(np.clip(np.linalg.eigvalsh(a), 0.0, None))
        assert np.max(np.abs(np.linalg.eigvalsh(root) - want)) < 1e-7

    def test_zero_matrix(self):
        assert np.array_equal(sym_sqrt(np.zeros((4, 4))), np.zeros((4, 4)))

    def test_non_square_rejected(self):
        for shape in [(3, 2), (4,), (2, 2, 2)]:
            with pytest.raises(ContractError, match="square"):
                sym_sqrt(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        a = np.eye(3)
        a[1, 2] = a[2, 1] = bad
        with pytest.raises(ContractError, match="non-finite"):
            sym_sqrt(a)

    def test_non_finite_second_covariance_rejected(self):
        s2 = np.eye(3)
        s2[0, 0] = np.nan
        with pytest.raises(ContractError, match="non-finite"):
            trace_sqrt_product(np.eye(3), s2)


class TestRecordedSolverOutputs:
    """LAPACK results against the recorded Jacobi outputs: trace-sqrt
    products, the condition preconditioner and per-category FIDs."""

    @pytest.mark.parametrize("rank", sorted(JACOBI_TRACE_SQRT, reverse=True))
    def test_trace_sqrt_product(self, rank):
        rng = np.random.default_rng(1000 + rank)
        s1 = low_rank_cov(rng, 64, rank)
        s2 = low_rank_cov(rng, 64, rank)
        want = JACOBI_TRACE_SQRT[rank]
        scale = np.linalg.eigvalsh(s1)[-1] * np.linalg.eigvalsh(s2)[-1]
        tol = 1e-8 * want + sqrt_roundoff(64 - rank, scale)
        assert abs(trace_sqrt_product(s1, s2) - want) < tol

    def test_condition_preconditioner(self):
        config = ExperimentConfig()
        specs = synthdata.make_category_specs(config.n_categories, config.descriptions_per_category)
        embeddings = semantics.build_embeddings(specs, dim=config.embed_dim)
        matrix, shift = gan.condition_preconditioner(embeddings)
        # the 1e-10 keep threshold sits in a wide gap of the spectrum, so
        # any solver keeps the same subspace
        table = embeddings - shift
        vals = np.linalg.eigvalsh(table.T @ table / (len(table) - 1))
        assert not np.any((vals > 1e-14) & (vals < 1e-4))
        probes = np.random.default_rng(0).standard_normal((config.embed_dim, 3))
        quad = (probes.T @ matrix @ probes)[np.triu_indices(3)]
        assert rel_err(np.linalg.norm(matrix), JACOBI_PRECOND_NORM) < 1e-9
        assert rel_err(np.trace(matrix), JACOBI_PRECOND_TRACE) < 1e-9
        for got, want in zip(quad, JACOBI_PRECOND_QUAD):
            assert rel_err(got, want) < 1e-9

    def test_per_category_fid_pinned(self):
        # 16 fakes and 12 reals give rank <= 15 covariances in 64 feature
        # dims, each with trace < 6, so eigenvalues of the inner product
        # are < 36; FID carries the tr-sqrt round-off floor twice
        tol = 2 * sqrt_roundoff(64, 36.0)
        img = 8
        extractor = RegressorModel(img, 16, np.random.default_rng(13))
        specs = synthdata.make_category_specs(4)
        dataset = synthdata.build_dataset(specs, images_per_category=12, image_size=img, seed=3)
        split = synthdata.make_split([s.id for s in specs], n_unseen=1, seed=2)

        # the calls cli.evaluate_checkpoint's loop makes, 16 fakes a category
        fids = {}
        for cid in sorted(split.seen_ids | split.unseen_ids):
            fakes = np.random.default_rng(cid).uniform(-1, 1, size=(16, 3, img, img))
            reals = dataset.images[dataset.rows_of([cid])]
            fake_stats = feature_stats(extract_features(extractor, fakes))
            fids[cid] = frechet_distance(fake_stats, feature_stats(extract_features(extractor, reals)))
        report = fid_report(fids, split)
        assert report.per_category.keys() == JACOBI_FID.keys()
        for cid, want in JACOBI_FID.items():
            assert abs(report.per_category[cid] - want) < tol
        assert abs(report.seen_avg - JACOBI_FID_SEEN) < tol
        assert abs(report.unseen_avg - JACOBI_FID_UNSEEN) < tol


class TestSymSqrt:
    def test_square_of_root_recovers_matrix(self, rng):
        a = random_psd(rng, 6)
        root = sym_sqrt(a)
        assert np.max(np.abs(root @ root - a)) < 1e-8

    def test_identity(self):
        assert np.max(np.abs(sym_sqrt(np.eye(5)) - np.eye(5))) < 1e-12

    def test_strongly_negative_eigenvalue_warns(self):
        with pytest.warns(RuntimeWarning):
            sym_sqrt(np.diag([1.0, -0.5]))

    def test_tiny_negative_round_off_silent(self, recwarn):
        sym_sqrt(np.diag([1.0, -1e-12]))
        assert len(recwarn) == 0


class TestTraceSqrtProduct:
    def test_commuting_diagonal_case(self):
        s1 = np.diag([4.0, 9.0])
        s2 = np.diag([1.0, 16.0])
        # tr((s1 s2)^1/2) = sqrt(4) + sqrt(144) = 14
        assert abs(trace_sqrt_product(s1, s2) - 14.0) < 1e-10

    def test_matches_scipy_style_oracle(self, rng):
        # oracle: eigendecomposition of s1^(1/2) s2 s1^(1/2) via numpy
        for _ in range(10):
            s1 = random_psd(rng, 5)
            s2 = random_psd(rng, 5)
            w1, v1 = np.linalg.eigh(s1)
            root1 = (v1 * np.sqrt(np.clip(w1, 0, None))) @ v1.T
            inner = root1 @ s2 @ root1
            expected = float(np.sum(np.sqrt(np.clip(np.linalg.eigvalsh(inner), 0, None))))
            assert abs(trace_sqrt_product(s1, s2) - expected) < 1e-8

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ill_conditioned_matches_product_eigenvalues(self, seed):
        # eigenvalues spread over 10 decades, as in FID feature covariances;
        # the oracle is the nonsymmetric eigensolver on s1 @ s2, whose own
        # error here is ~1e-8 relative. The Jacobi solver was off by 1.3e-5
        # on seed 2: it stopped on s1 with off-diagonal mass 1.4e-8 of the
        # norm, against its 1e-12 target.
        rng = np.random.default_rng(seed)
        s1, s2 = (ill_conditioned_cov(rng, 64, -8, 2) for _ in range(2))
        want = float(np.sum(np.sqrt(np.abs(np.linalg.eigvals(s1 @ s2)))))
        assert rel_err(trace_sqrt_product(s1, s2), want) < 1e-7

    def test_symmetric_in_arguments(self, rng):
        s1 = random_psd(rng, 4)
        s2 = random_psd(rng, 4)
        assert abs(trace_sqrt_product(s1, s2) - trace_sqrt_product(s2, s1)) < 1e-8
