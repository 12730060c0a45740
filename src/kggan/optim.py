"""Bias-corrected adaptive-moment (Adam) parameter updates, in place.

``adam_step`` checks every gradient before it writes anything, then
updates each parameter and its moments in their own arrays, with two
temporaries per parameter. The state holds the moments only; the
caller passes the step number t of the bias corrections: the GAN's
iteration + 1, the embedder's step + 1. So a resume has no count to
restore. The learning rate and both moment decays are always passed;
the GAN's come from ``config.gan_lr``, ``gan.BETA1`` and ``gan.BETA2``.
At beta1 = 0 the first moment is the current gradient, which no later
step reads, so the state keeps none and the update reads the gradient
itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, NumericalAbort

EPSILON = 1e-8  # added to sqrt(v / c2), the update's denominator


@dataclass
class AdamState:
    learning_rate: float
    beta1: float
    beta2: float
    # one array per parameter, none at beta1 = 0
    first_moment: list = field(default_factory=list)
    second_moment: list = field(default_factory=list)

    @classmethod
    def for_params(cls, params, learning_rate, beta1, beta2):
        return cls(
            learning_rate=learning_rate,
            beta1=beta1,
            beta2=beta2,
            first_moment=[np.zeros_like(p.data) for p in params] if beta1 else [],
            second_moment=[np.zeros_like(p.data) for p in params],
        )


def adam_step(params, state: AdamState, grads, t: int) -> None:
    """Apply the ``t``-th Adam update, counting from 1, with ``grads``, one
    array per parameter, as ``autodiff.backward`` returns them.

    Every gradient is checked before anything is written: a missing one
    or one of the wrong shape is a contract error, a non-finite one a
    numerical abort, each naming the parameter. A rejected step leaves
    every parameter and moment as it was. The update then writes each
    parameter's array and its moments in place, so a caller that must
    keep the old values copies them first. Each parameter costs
    two temporaries of its size, a scratch array that holds every
    intermediate and the denominator, and 14 elementwise passes. The
    rounding steps are those of

        m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * (g * g)
        p = p - lr * (m / c1) / (sqrt(v / c2) + eps)

    with operands swapped only across a multiplication, and m's steps
    after v's, which share no operand; the golden metric logs pin them
    bit for bit. At beta1 = 0 there is no m: the update is
    p - (g * lr) / (sqrt(v / c2) + eps), in 10 passes. That is the same
    value bit for bit, since m / c1 was g itself (or +0 for a -0
    gradient, and p - (+-0) = p for any p but -0).
    """
    moments = state.first_moment if state.beta1 else [None] * len(params)
    if not len(grads) == len(moments) == len(state.second_moment) == len(params):
        raise ContractError("optimizer state does not align with the parameter list")
    for i, (p, g) in enumerate(zip(params, grads)):
        if g is None:
            raise ContractError(f"missing gradient for parameter {p.name or i}")
        if g.shape != p.data.shape:
            raise ContractError(f"gradient shape {g.shape} mismatches parameter {p.data.shape}")
        if not np.all(np.isfinite(g)):
            raise NumericalAbort(f"non-finite gradient for parameter {p.name or i}")

    b1, b2 = state.beta1, state.beta2
    correction1 = 1.0 - b1**t
    correction2 = 1.0 - b2**t
    for p, g, m, v in zip(params, grads, moments, state.second_moment):
        scratch = np.square(g)  # g * g, the same rounding, in a faster loop
        scratch *= 1.0 - b2
        v *= b2
        v += scratch
        denom = v / correction2
        np.sqrt(denom, out=denom)
        denom += EPSILON
        if m is None:
            np.multiply(g, state.learning_rate, out=scratch)
        else:
            np.multiply(g, 1.0 - b1, out=scratch)
            m *= b1
            m += scratch
            np.divide(m, correction1, out=scratch)
            scratch *= state.learning_rate
        scratch /= denom
        np.subtract(p.data, scratch, out=p.data)
