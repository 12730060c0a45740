"""Per-category semantic embeddings from hashed bag-of-words text features.

Each token lands in one of d buckets via 64-bit FNV-1a; bucket counts are
scaled by 1 / (1 + max_count), which keeps every entry in [0, 1) and makes
the embedding a pure function of the text. A category's embedding is the
mean over its description embeddings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .checkpoint import write_atomic
from .errors import ContractError
from .hashing import fnv1a_64

_TOKEN_RE = re.compile(r"[a-z0-9]+")


@dataclass
class SemanticEmbedding:
    vector: np.ndarray  # [d] float64 in [0, 1]
    category_id: int


def embed_text(description: str, dim: int = 64) -> np.ndarray:
    """Hashed bag-of-words feature vector in [0, 1]."""
    tokens = _TOKEN_RE.findall(description.lower())
    if not any(any(ch.isalpha() for ch in tok) for tok in tokens):
        raise ContractError("description has no alphabetic token")
    counts = np.zeros(dim)
    for tok in tokens:
        counts[fnv1a_64(tok.encode("utf-8")) % dim] += 1.0
    return counts / (1.0 + counts.max())


def category_embedding(descriptions, dim: int = 64, category_id: int = -1) -> SemanticEmbedding:
    """Mean of the description embeddings, clamped into [0, 1]."""
    descriptions = list(descriptions)
    if not descriptions:
        raise ContractError("category has no descriptions")
    total = np.zeros(dim)
    for text in descriptions:
        total += embed_text(text, dim)
    return SemanticEmbedding(
        vector=np.clip(total / len(descriptions), 0.0, 1.0), category_id=category_id
    )


def build_embeddings(specs, dim: int = 64) -> dict:
    return {
        spec.id: category_embedding(spec.descriptions, dim=dim, category_id=spec.id)
        for spec in specs
    }


def save_embeddings(path, embeddings: dict, header_lines=()) -> None:
    """Plain-text rows: category_id followed by d decimal floats."""
    lines = [f"# {line}" for line in header_lines]
    for cid in sorted(embeddings):
        vals = " ".join(repr(float(v)) for v in embeddings[cid].vector)
        lines.append(f"{cid} {vals}")
    write_atomic(path, "\n".join(lines) + "\n")


def load_embeddings(path) -> dict:
    """Read ``save_embeddings`` rows back.

    Every row must parse and hold as many finite values as the first;
    otherwise a ContractError names the file and the category.
    """
    out = {}
    dim = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                cid = int(parts[0])
                vector = np.asarray([float(x) for x in parts[1:]])
            except ValueError:
                raise ContractError(f"{path}: unparsable embedding row {line!r}") from None
            if dim is None:
                dim = vector.size
            if vector.size != dim or dim == 0:
                raise ContractError(
                    f"{path}: category {cid} has {vector.size} embedding values, "
                    f"expected {dim or 'at least 1'}"
                )
            if not np.all(np.isfinite(vector)):
                raise ContractError(f"{path}: category {cid} has a non-finite embedding value")
            out[cid] = SemanticEmbedding(vector=vector, category_id=cid)
    return out
