"""Bias-corrected adaptive-moment (Adam) parameter updates, in place.

``adam_step`` checks every gradient before it writes anything, then
updates each parameter and its two moments in their own arrays, with two
temporaries per parameter. Defaults follow the usual
spectrally-normalized GAN regime: lr 2e-4, beta1 0.0, beta2 0.9.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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

    Every gradient is checked before anything is written: a missing one
    or one of the wrong shape is a contract error, a non-finite one a
    numerical abort, each naming the parameter. A rejected step leaves
    every parameter, moment and ``step_count`` as it was. The update then
    writes each parameter's array and its two moments in place, so a
    caller that must keep the old values copies them first. Each
    parameter costs two temporaries of its size, a scratch array that
    holds every intermediate and the denominator. The rounding steps are
    those of

        m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * (g * g)
        p = p - lr * (m / c1) / (sqrt(v / c2) + eps)

    with operands swapped only across a multiplication; the golden
    metric logs pin them bit for bit.
    """
    if len(grads) != len(params) or len(state.first_moment) != len(params):
        raise ContractError("optimizer state does not align with the parameter list")
    for i, (p, g) in enumerate(zip(params, grads)):
        if g is None:
            raise ContractError(f"missing gradient for parameter {p.name or i}")
        if g.shape != p.data.shape:
            raise ContractError(f"gradient shape {g.shape} mismatches parameter {p.data.shape}")
        if not np.all(np.isfinite(g)):
            raise NumericalAbort(f"non-finite gradient for parameter {p.name or i}")

    t = state.step_count + 1
    b1, b2 = state.beta1, state.beta2
    correction1 = 1.0 - b1**t
    correction2 = 1.0 - b2**t
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        scratch = (1.0 - b1) * g
        m *= b1
        m += scratch
        np.multiply(g, g, out=scratch)
        scratch *= 1.0 - b2
        v *= b2
        v += scratch
        denom = v / correction2
        np.sqrt(denom, out=denom)
        denom += state.epsilon
        np.divide(m, correction1, out=scratch)
        scratch *= state.learning_rate
        scratch /= denom
        np.subtract(p.data, scratch, out=p.data)
    state.step_count = t
