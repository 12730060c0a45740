"""Bias-corrected adaptive-moment (Adam) parameter updates, in place.

``adam_step`` checks every gradient before it writes anything, then
updates each parameter and its moments in their own arrays, with two
work rows that the state allocates once. The state holds the moments
and those rows only; the caller passes the step number t of the bias
corrections: the GAN's iteration + 1, the embedder's step + 1. So a
resume has no count to restore. The learning rate and both moment
decays are always passed; the GAN's come from ``config.gan_lr``,
``gan.BETA1`` and ``gan.BETA2``. At beta1 = 0 the first moment is the
current gradient, which no later step reads, so the state keeps none
and the update reads the gradient itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalAbort

EPSILON = 1e-8  # added to sqrt(v / c2), the update's denominator


@dataclass
class AdamState:
    learning_rate: float
    beta1: float
    beta2: float
    # per parameter, adam_step's two work arrays: views of two rows, each as
    # long as the largest parameter, made once. Kept, since glibc returns a
    # freed array that large to the OS and the next step's would fault in
    # anew; views made every step would cost ~6% of the GAN's Adam time
    work: list
    # one array per parameter, none at beta1 = 0
    first_moment: list = field(default_factory=list)
    second_moment: list = field(default_factory=list)

    @classmethod
    def for_params(cls, params, learning_rate, beta1, beta2):
        """Zero moments of each parameter's shape and dtype, and work rows of
        the first parameter's dtype: a state's parameters share one."""
        rows = np.empty((2, max(p.data.size for p in params)), params[0].data.dtype)
        return cls(
            learning_rate=learning_rate,
            beta1=beta1,
            beta2=beta2,
            work=[tuple(row[: p.data.size].reshape(p.data.shape) for row in rows) for p in params],
            first_moment=[np.zeros_like(p.data) for p in params] if beta1 else [],
            second_moment=[np.zeros_like(p.data) for p in params],
        )


def adam_step(params, state: AdamState, grads, t: int) -> None:
    """Apply the ``t``-th Adam update, counting from 1, with ``grads``, one
    array of its parameter's shape per parameter, as ``autodiff.backward``
    returns them, and ``state`` built over the same list
    (``AdamState.for_params``).

    Every gradient is checked for finiteness before anything is written:
    a non-finite one is a numerical abort naming the parameter, and it
    leaves every parameter and moment as it was. The update then writes
    each parameter's array and its moments in place, so a caller that
    must keep the old values copies them first. Each parameter has its
    views of the state's two work rows, a scratch array that holds every
    intermediate and the denominator, and costs 14 elementwise passes;
    the step allocates no array of its size. The
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
    for i, (p, g) in enumerate(zip(params, grads)):
        if not np.all(np.isfinite(g)):
            raise NumericalAbort(f"non-finite gradient for parameter {p.name or i}")

    b1, b2 = state.beta1, state.beta2
    correction1 = 1.0 - b1**t
    correction2 = 1.0 - b2**t
    for p, g, m, v, (scratch, denom) in zip(params, grads, moments, state.second_moment, state.work):
        np.square(g, out=scratch)  # g * g, the same rounding, in a faster loop
        scratch *= 1.0 - b2
        v *= b2
        v += scratch
        np.divide(v, correction2, out=denom)
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
