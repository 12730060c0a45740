"""Per-category Frechet-distance scoring plus two knowledge metrics.

Fake and real feature distributions are fit with Gaussians in the frozen
regressor's penultimate-layer space, then compared per category; seen and
unseen categories are averaged separately. The matrix square root inside
the distance uses the symmetric form s1^(1/2) s2 s1^(1/2) with LAPACK
eigendecomposition (numpy.linalg.eigh/eigvalsh) and eigenvalue clamping
at zero.

Absolute values live in this artifact's own feature space and are not
comparable across feature extractors; the ordering between methods is
what the ablation reads.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DimensionError
from .linalg import trace_sqrt_product
from .regressor import RegressorModel, extract_features
from .synthdata import mean_foreground_color

SYMMETRY_TOL = 1e-10


@dataclass
class GaussianStats:
    mean: np.ndarray
    covariance: np.ndarray
    sample_count: int


@dataclass
class FidReport:
    per_category: dict
    seen_avg: float
    unseen_avg: float


def feature_stats(images, extractor: RegressorModel) -> GaussianStats:
    """Mean and unbiased covariance of penultimate-layer features."""
    images = np.asarray(images)
    n = images.shape[0]
    if n < 2:
        raise ContractError(f"need at least 2 images for feature statistics, got {n}")
    feats = extract_features(extractor, images)
    mean = feats.mean(axis=0)
    centered = feats - mean
    cov = centered.T @ centered / (n - 1)
    cov = (cov + cov.T) / 2.0
    return GaussianStats(mean=mean, covariance=cov, sample_count=n)


def frechet_distance(p: GaussianStats, q: GaussianStats) -> float:
    """||mu_p - mu_q||^2 + tr(S_p + S_q - 2 (S_p S_q)^(1/2))."""
    if p.mean.shape != q.mean.shape:
        raise DimensionError(f"feature dims differ: {p.mean.shape} vs {q.mean.shape}")
    for stats in (p, q):
        if not np.allclose(stats.covariance, stats.covariance.T, atol=SYMMETRY_TOL, rtol=0.0):
            raise ContractError("covariance input is not symmetric")
    diff = p.mean - q.mean
    value = float(
        diff @ diff
        + np.trace(p.covariance)
        + np.trace(q.covariance)
        - 2.0 * trace_sqrt_product(p.covariance, q.covariance)
    )
    return max(value, 0.0)


def per_category_fid(
    sample_fn, dataset, split, extractor: RegressorModel, n_gen: int, on_draw=None
) -> FidReport:
    """Frechet distance per category between n_gen fakes and that
    category's real images, then seen/unseen averages.

    ``sample_fn(category_id, n)`` returns an [n, 3, S, S] array.
    ``on_draw(category_id, images)``, when given, sees every category's
    draw, so other metrics can score the same images without sampling
    again. Categories with fewer than 2 real images are skipped with a
    warning and excluded from the averages.
    """
    if n_gen < 2:
        raise ContractError(f"n_gen must be >= 2, got {n_gen}")
    per_category = {}
    for cid in sorted(split.seen_ids | split.unseen_ids):
        fakes = sample_fn(cid, n_gen)
        if on_draw is not None:
            on_draw(cid, fakes)
        fake_stats = feature_stats(fakes, extractor)
        del fakes  # one category's draw in memory at a time
        rows = dataset.indices_of(cid)
        if rows.size < 2:
            warnings.warn(f"category {cid} has {rows.size} real images; skipped", RuntimeWarning)
            continue
        real_stats = feature_stats(dataset.images[rows], extractor)
        per_category[cid] = frechet_distance(fake_stats, real_stats)

    def average(ids):
        values = [per_category[c] for c in sorted(ids) if c in per_category]
        return float(np.mean(values)) if values else float("nan")

    return FidReport(
        per_category=per_category,
        seen_avg=average(split.seen_ids),
        unseen_avg=average(split.unseen_ids),
    )


def embedding_consistency(sample_fn, embedder: RegressorModel, embeddings, category_ids, n_gen: int):
    """Per category: mean squared distance between the regressor's
    prediction on generated images and the target embedding."""
    if not embedder.frozen:
        raise ContractError("embedding consistency requires a frozen regressor")
    out = {}
    for cid in sorted(category_ids):
        images = sample_fn(cid, n_gen)
        feats = _predict_batch(embedder, images)
        target = embeddings[cid].vector
        out[cid] = float(np.mean(np.sum((feats - target) ** 2, axis=1)))
    return out


def _predict_batch(embedder: RegressorModel, images) -> np.ndarray:
    from . import autodiff as ad
    from .autodiff import Tensor

    with ad.no_grad():
        pred = embedder.forward(Tensor(np.asarray(images), _validate=False))
    return pred.data


def color_fidelity(sample_fn, specs_by_id, category_ids, n_gen: int):
    """Fraction of generated images whose dominant mean-foreground channel
    matches the category's dominant base color channel."""
    out = {}
    for cid in sorted(category_ids):
        spec = specs_by_id[cid]
        want = int(np.argmax(np.asarray(spec.base_color)))
        images = sample_fn(cid, n_gen)
        hits = sum(1 for img in images if int(np.argmax(mean_foreground_color(img))) == want)
        out[cid] = hits / len(images)
    return out


def format_fid_table(rows, header_lines=()) -> str:
    """Aligned text table: method, condition, knowledge-loss flag, FIDs.

    ``rows`` is a list of (method, condition, l_se_flag, seen_fid,
    unseen_fid) tuples.
    """
    header = ("Method", "Condition", "L_se", "Seen FID", "Unseen FID")
    body = [
        (method, condition, "yes" if flag else "no", f"{seen:.4f}", f"{unseen:.4f}")
        for method, condition, flag, seen, unseen in rows
    ]
    widths = [max(len(header[i]), *(len(r[i]) for r in body)) for i in range(len(header))]
    lines = [f"# {line}" for line in header_lines]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    lines.append("  ".join("-" * w for w in widths))
    for r in body:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(header))))
    return "\n".join(lines) + "\n"
