"""Per-category Frechet-distance scoring, color fidelity and the FID table.

Fake and real feature distributions are fit with Gaussians in the frozen
regressor's penultimate-layer space, then compared per category; seen and
unseen categories are averaged separately. The matrix square root inside
the distance uses the symmetric form s1^(1/2) s2 s1^(1/2) with LAPACK
eigendecomposition (numpy.linalg.eigh/eigvalsh) and eigenvalue clamping
at zero.

Each category's draw is scored in batched passes: one trunk pass of the
regressor gives the draw's penultimate features, which feed the FID
statistics; color fidelity takes the foreground means of the whole draw
at once. The caller (``cli.evaluate_checkpoint``) owns the per-category
loop and runs the regressor, so this module is numpy statistics only;
``fid_report`` averages its per-category distances.

The statistics trust what the program built: ``validate_config`` keeps
every draw (``n_gen``) and every category (``images_per_category``) at
two images or more, one extractor gives every feature the same width,
and ``feature_stats`` symmetrizes each covariance exactly. A NaN is the
one bad input left, and ``linalg`` refuses it.

Absolute values live in this artifact's own feature space and are not
comparable across feature extractors; the ordering between methods is
what the ablation reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import trace_sqrt_product
from .synthdata import PALETTE, mean_foreground_color


@dataclass
class GaussianStats:
    mean: np.ndarray
    covariance: np.ndarray


@dataclass
class FidReport:
    per_category: dict
    seen_avg: float
    unseen_avg: float


def feature_stats(features) -> GaussianStats:
    """Float64 mean and unbiased covariance of an [n, d] feature matrix,
    n >= 2: the regressor's float32 features are widened first."""
    feats = np.asarray(features, dtype=np.float64)
    n = feats.shape[0]
    mean = feats.mean(axis=0)
    centered = feats - mean
    cov = centered.T @ centered / (n - 1)
    cov = (cov + cov.T) / 2.0
    return GaussianStats(mean=mean, covariance=cov)


def frechet_distance(p: GaussianStats, q: GaussianStats) -> float:
    """||mu_p - mu_q||^2 + tr(S_p + S_q - 2 (S_p S_q)^(1/2))."""
    diff = p.mean - q.mean
    value = float(
        diff @ diff
        + np.trace(p.covariance)
        + np.trace(q.covariance)
        - 2.0 * trace_sqrt_product(p.covariance, q.covariance)
    )
    return max(value, 0.0)


def fid_report(per_category: dict, split) -> FidReport:
    """The per-category distances with their seen and unseen averages,
    each the mean over that part of ``split`` in id order."""

    def average(ids):
        return float(np.mean([per_category[c] for c in sorted(ids)]))

    return FidReport(per_category, average(split.seen_ids), average(split.unseen_ids))


def color_fidelity(images, color: str) -> float:
    """Fraction of a draw's [n, 3, S, S] images whose dominant mean-foreground
    channel is the dominant channel of the ``PALETTE`` color ``color``."""
    want = int(np.argmax(PALETTE[color]))
    hits = np.argmax(mean_foreground_color(images), axis=-1) == want
    return int(np.count_nonzero(hits)) / len(images)


def format_fid_table(rows, header_lines=()) -> str:
    """Aligned text table: method, condition, knowledge-loss flag, FIDs.

    ``rows`` holds (method, condition, l_se, seen_fid, unseen_fid) tuples,
    l_se as shown, "yes" or "no"; with none, the table is its header and rule.
    """
    header = ("Method", "Condition", "L_se", "Seen FID", "Unseen FID")
    body = [
        (method, condition, l_se, f"{seen:.4f}", f"{unseen:.4f}")
        for method, condition, l_se, seen, unseen in rows
    ]
    widths = [max([len(header[i]), *(len(r[i]) for r in body)]) for i in range(len(header))]
    lines = [f"# {line}" for line in header_lines]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    lines.append("  ".join("-" * w for w in widths))
    for r in body:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(header))))
    return "\n".join(lines) + "\n"
