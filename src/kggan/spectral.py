"""Spectral normalization of weight matrices via power iteration.

The dominant left singular vector ``u`` is the only spectral state: it
persists across training iterations, and one power step per iteration
from it gives a largest-singular-value estimate that tracks the slowly
moving weights. The estimate is treated as a constant when the
normalized weight enters the gradient graph. A power step reads the
weight's array; ``gan.GanModel`` keeps each weight's ``u`` and ``sigma``
under its ``Tensor.name``.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, scale


def power_iteration_step(w: np.ndarray, u: np.ndarray):
    """One round of power iteration on the float32 or float64 matrix
    ``w`` from the unit vector ``u`` of its dtype.

    Returns (u, sigma): the new unit vector, in that dtype, and the
    estimate, a python float, that converges to the largest singular
    value under repetition. For a (numerically) zero matrix it returns
    (u, None), and for one holding a NaN or an infinity (u, nan), ``u``
    unchanged in both: a non-finite norm is never divided by, so an
    infinite weight gives no inf / inf warning. The zero test compares
    each norm as a python float: against a float32 norm, NumPy would
    round the 1e-150 bound to 0 and the test could never hold.
    """
    v = w.T @ u
    v_norm = np.linalg.norm(v)
    if not np.isfinite(v_norm):
        return u, float("nan")
    if float(v_norm) < 1e-150:
        return u, None
    v = v / v_norm

    u_new = w @ v
    u_norm = np.linalg.norm(u_new)
    if float(u_norm) < 1e-150:
        return u, None
    u = u_new / u_norm
    return u, float(u @ u_new)


def spectral_normalize(weight: Tensor, sigma) -> Tensor:
    """Divide a weight matrix by ``sigma``, its estimated largest singular
    value. The original tensor is left untouched. A sigma of None, a
    numerically zero matrix's, returns the weight unchanged. ``sigma`` is
    a power step's: finite and positive for a finite weight. A NaN or an
    infinite weight gives a NaN sigma, and the step's NaN gradients end
    in ``adam_step``'s non-finite-gradient abort."""
    if sigma is None:
        return weight
    return scale(weight, 1.0 / sigma)
