"""Per-category semantic embeddings from hashed bag-of-words text features.

Each token lands in one of d buckets via 64-bit FNV-1a; bucket counts are
scaled by 1 / (1 + max_count), which keeps every entry in [0, 1) and makes
the embedding a pure function of the text. A category's embedding is the
mean over its description embeddings.

The category table is a [n_categories, d] float64 array whose row i is
category i. ``embeddings.txt`` holds one row per category, numbered
0..n-1 once each and in order.
"""

from __future__ import annotations

import re
import numpy as np

from .checkpoint import write_atomic
from .errors import ContractError
from .hashing import fnv1a_64

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def embed_text(description: str, dim: int = 64) -> np.ndarray:
    """Hashed bag-of-words feature vector in [0, 1]."""
    tokens = _TOKEN_RE.findall(description.lower())
    if not any(any(ch.isalpha() for ch in tok) for tok in tokens):
        raise ContractError("description has no alphabetic token")
    counts = np.zeros(dim)
    for tok in tokens:
        counts[fnv1a_64(tok.encode("utf-8")) % dim] += 1.0
    return counts / (1.0 + counts.max())


def category_embedding(descriptions, dim: int = 64) -> np.ndarray:
    """Mean of the description embeddings, clamped into [0, 1]."""
    descriptions = list(descriptions)
    if not descriptions:
        raise ContractError("category has no descriptions")
    total = np.zeros(dim)
    for text in descriptions:
        total += embed_text(text, dim)
    return np.clip(total / len(descriptions), 0.0, 1.0)


def build_embeddings(specs, dim: int = 64) -> np.ndarray:
    """The [n, dim] category table; ``specs`` are categories 0..n-1 in order."""
    return np.stack([category_embedding(spec.descriptions, dim=dim) for spec in specs])


def save_embeddings(path, embeddings: np.ndarray, header_lines=()) -> None:
    """Plain-text rows: category_id followed by d decimal floats."""
    lines = [f"# {line}" for line in header_lines]
    for cid, row in enumerate(embeddings):
        vals = " ".join(repr(float(v)) for v in row)
        lines.append(f"{cid} {vals}")
    write_atomic(path, "\n".join(lines) + "\n")


def load_embeddings(path) -> np.ndarray:
    """Read ``save_embeddings`` rows back into the [n, d] category table.

    The rows must number 0..n-1 once each, in order, and every row must
    parse and hold as many finite values as the first; otherwise a
    ContractError names the file and the category.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError:
        raise ContractError(f"{path} is not UTF-8 text") from None
    rows = []
    dim = None
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            cid = int(parts[0])
            vector = np.asarray([float(x) for x in parts[1:]])
        except ValueError:
            raise ContractError(f"{path}: unparsable embedding row {line!r}") from None
        if cid != len(rows):
            raise ContractError(
                f"{path}: expected category {len(rows)}, found category {cid} "
                "(rows must number 0..n-1 once each, in order)"
            )
        if dim is None:
            dim = vector.size
        if vector.size != dim or dim == 0:
            raise ContractError(
                f"{path}: category {cid} has {vector.size} embedding values, "
                f"expected {dim or 'at least 1'}"
            )
        if not np.all(np.isfinite(vector)):
            raise ContractError(f"{path}: category {cid} has a non-finite embedding value")
        rows.append(vector)
    if not rows:
        raise ContractError(f"{path}: no embedding rows")
    return np.stack(rows)
