"""Spectral normalization of weight matrices via power iteration.

The dominant left singular vector ``u`` persists across training
iterations; one power step per iteration is enough for the largest
singular value estimate to track the slowly moving weights. The estimate
is treated as a constant when the normalized weight enters the gradient
graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, scale
from .errors import ContractError, DimensionError

SIGMA_FLOOR = 1e-12


@dataclass
class SpectralState:
    """Persistent power-iteration state for one weight matrix."""

    u: np.ndarray
    sigma_estimate: float = 1.0
    degenerate: bool = False
    steps: int = 0


def init_spectral_state(n_rows: int, rng: np.random.Generator) -> SpectralState:
    u = rng.standard_normal(n_rows)
    norm = np.linalg.norm(u)
    if norm == 0.0:
        u = np.zeros(n_rows)
        u[0] = 1.0
    else:
        u = u / norm
    return SpectralState(u=u)


def power_iteration_step(weight, state: SpectralState) -> SpectralState:
    """One round of power iteration; returns the updated state.

    sigma_estimate converges to the largest singular value under
    repetition. A (numerically) zero matrix is flagged degenerate and the
    estimate floored at SIGMA_FLOOR.
    """
    w = weight.data if isinstance(weight, Tensor) else np.asarray(weight, dtype=np.float64)
    if w.ndim != 2:
        raise DimensionError(f"power iteration needs a 2-D matrix, got shape {w.shape}")
    if state.u.shape != (w.shape[0],):
        raise DimensionError(
            f"spectral state u has length {state.u.shape[0]}, weight has {w.shape[0]} rows"
        )

    v = w.T @ state.u
    v_norm = np.linalg.norm(v)
    if v_norm < 1e-150:
        state.sigma_estimate = SIGMA_FLOOR
        state.degenerate = True
        state.steps += 1
        return state
    v = v / v_norm

    u_new = w @ v
    u_norm = np.linalg.norm(u_new)
    if u_norm < 1e-150:
        state.sigma_estimate = SIGMA_FLOOR
        state.degenerate = True
        state.steps += 1
        return state

    state.u = u_new / u_norm
    state.sigma_estimate = float(state.u @ u_new)
    state.degenerate = False
    state.steps += 1
    return state


def spectral_normalize(weight: Tensor, state: SpectralState) -> Tensor:
    """Divide a weight matrix by its estimated largest singular value.

    The original tensor is left untouched. A degenerate estimate returns
    the weight unchanged; callers can inspect ``state.degenerate``.
    """
    if state.steps == 0:
        raise ContractError("spectral_normalize before any power_iteration_step")
    if state.degenerate:
        return weight
    return scale(weight, 1.0 / state.sigma_estimate)
