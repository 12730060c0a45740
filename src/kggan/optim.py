"""Bias-corrected adaptive-moment (Adam) parameter updates.

Defaults follow the usual spectrally-normalized GAN regime: lr 2e-4,
beta1 0.0, beta2 0.9.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .errors import ContractError, NumericalAbort


@dataclass
class AdamState:
    learning_rate: float = 2e-4
    beta1: float = 0.0
    beta2: float = 0.9
    epsilon: float = 1e-8
    step_count: int = 0
    first_moment: list = field(default_factory=list)
    second_moment: list = field(default_factory=list)

    @classmethod
    def for_params(cls, params, learning_rate=2e-4, beta1=0.0, beta2=0.9):
        return cls(
            learning_rate=learning_rate,
            beta1=beta1,
            beta2=beta2,
            first_moment=[np.zeros_like(p.data) for p in params],
            second_moment=[np.zeros_like(p.data) for p in params],
        )


def adam_step(params, state: AdamState, grads) -> None:
    """Apply one Adam update with ``grads``, one array per parameter, as
    ``autodiff.backward`` returns them; increments ``step_count``.

    Parameters and moments are replaced by new arrays, never written in
    place, so a state that holds the old arrays keeps its values. Each
    parameter costs four arrays of its size: the two new moments, a
    scratch array that holds every intermediate and becomes the new
    parameter, and the denominator. The rounding steps are those of

        m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * (g * g)
        p = p - lr * (m / c1) / (sqrt(v / c2) + eps)

    with operands swapped only across a multiplication; the golden
    metric logs pin them bit for bit. A missing gradient is a contract
    error and a non-finite one a numerical abort, each naming the
    parameter.
    """
    if len(grads) != len(params) or len(state.first_moment) != len(params):
        raise ContractError("optimizer state does not align with the parameter list")

    t = state.step_count + 1
    b1, b2 = state.beta1, state.beta2
    correction1 = 1.0 - b1**t
    correction2 = 1.0 - b2**t
    for i, (p, g) in enumerate(zip(params, grads)):
        if g is None:
            raise ContractError(f"missing gradient for parameter {p.name or i}")
        if g.shape != p.data.shape:
            raise ContractError(f"gradient shape {g.shape} mismatches parameter {p.data.shape}")
        if not np.all(np.isfinite(g)):
            raise NumericalAbort(f"non-finite gradient for parameter {p.name or i}")
        scratch = (1.0 - b1) * g
        m = state.first_moment[i] * b1
        m += scratch
        np.multiply(g, g, out=scratch)
        scratch *= 1.0 - b2
        v = state.second_moment[i] * b2
        v += scratch
        state.first_moment[i] = m
        state.second_moment[i] = v
        denom = v / correction2
        np.sqrt(denom, out=denom)
        denom += state.epsilon
        np.divide(m, correction1, out=scratch)
        scratch *= state.learning_rate
        scratch /= denom
        np.subtract(p.data, scratch, out=scratch)
        p.data = scratch
    state.step_count = t
