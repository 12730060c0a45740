"""Per-category semantic embeddings from hashed bag-of-words text features.

Each token lands in one of d buckets via 64-bit FNV-1a; bucket counts are
scaled by 1 / (1 + max_count), which keeps every entry in [0, 1) and makes
the embedding a pure function of the text. A category's embedding is the
mean over its description embeddings.

The category table is a [n_categories, d] float64 array whose row i is
category i; the dataset file stores it (``synthdata.save_dataset``).
"""

from __future__ import annotations

import re
import numpy as np

from .hashing import fnv1a_64

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def embed_text(description: str, dim: int = 64) -> np.ndarray:
    """Hashed bag-of-words feature vector in [0, 1)."""
    tokens = _TOKEN_RE.findall(description.lower())
    counts = np.zeros(dim)
    for tok in tokens:
        counts[fnv1a_64(tok.encode("utf-8")) % dim] += 1.0
    return counts / (1.0 + counts.max())


def category_embedding(descriptions, dim: int = 64) -> np.ndarray:
    """Mean of the description embeddings, in [0, 1) as each of them is."""
    total = np.zeros(dim)
    for text in descriptions:
        total += embed_text(text, dim)
    return total / len(descriptions)


def build_embeddings(specs, dim: int = 64) -> np.ndarray:
    """The [n, dim] category table; ``specs`` are categories 0..n-1 in order."""
    return np.stack([category_embedding(spec.descriptions, dim=dim) for spec in specs])
