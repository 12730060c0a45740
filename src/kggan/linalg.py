"""Symmetric eigendecomposition through LAPACK (numpy.linalg.eigh), and the
matrix-square-root machinery built on it.

Every input is checked to be square and finite first, so a bad covariance
surfaces as a ContractError rather than a LinAlgError or a NaN distance.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ContractError

CLAMP_WARN_THRESHOLD = -1e-6


def _checked_square(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractError(f"eigendecomposition needs a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ContractError("eigendecomposition input has non-finite entries")
    return a


def _clamp(vals) -> np.ndarray:
    """Negative eigenvalues clamped to zero.

    Warns when anything falls below CLAMP_WARN_THRESHOLD; smaller
    negatives are ordinary round-off from nearly singular inputs.
    """
    if np.min(vals) < CLAMP_WARN_THRESHOLD:
        warnings.warn(
            f"clamping eigenvalue {np.min(vals):.3e} to zero", RuntimeWarning, stacklevel=3
        )
    return np.clip(vals, 0.0, None)


def sym_sqrt(matrix) -> np.ndarray:
    """Principal square root of a symmetric positive semidefinite matrix,
    its negative eigenvalues clamped to zero."""
    vals, vecs = np.linalg.eigh(_checked_square(matrix))
    return (vecs * np.sqrt(_clamp(vals))) @ vecs.T


def trace_sqrt_product(sigma1, sigma2) -> float:
    """tr((sigma1 sigma2)^(1/2)) via the symmetric form s1^(1/2) s2 s1^(1/2).

    Only the eigenvalues of the inner matrix are needed, so it goes
    through eigvalsh.
    """
    root1 = sym_sqrt(sigma1)
    inner = root1 @ sigma2 @ root1
    inner = (inner + inner.T) / 2.0
    vals = _clamp(np.linalg.eigvalsh(_checked_square(inner)))
    return float(np.sum(np.sqrt(vals)))
