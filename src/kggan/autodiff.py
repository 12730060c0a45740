"""Reverse-mode automatic differentiation over dense float32 or float64
tensors.

A tensor made from a float32 array stays float32; anything else becomes
float64. Every operation computes in its inputs' dtype, so a float32
network (the GAN) runs in single precision forward and backward, and a
float64 one (the embedder) in double. Operands of one operation share a
dtype: mixing them would widen the result to float64.

A module-level tape records every operation run outside ``no_grad``, in
execution order, so operands always precede the nodes that use them.
``backward(loss, params)`` seeds the loss with ones and replays, in
reverse and exactly once, only the nodes that depend on ``params``; the
product rules (affine, matmul, mul) skip the product for any input whose
gradient is not wanted. It returns a gradient for exactly the params
passed, one each, from a dict local to the pass: tensors carry no
gradient and no flag, nothing is reset between passes, and only an
optimizer decides what is stepped. ``backward`` consumes the tape: it
pops each node as it replays it, and drops each output's gradient once
passed on, so the pass frees the forward's intermediates as it goes and
leaves the tape empty. That makes each forward/backward round
self-contained: repeating the same forward pass yields the same
gradients.

Gradient arrays are never mutated in place; accumulation always allocates,
so it is safe for a backward rule to hand back the incoming gradient
object itself (as ``add`` does).
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, DimensionError

# leaky_relu's slope below zero, in the GAN and in the regressor
LEAK = 0.1


class Tensor:
    """A dense float32 or float64 array; ``backward`` differentiates it
    when passed it.

    ``data`` keeps a float32 input's dtype and widens anything else to
    float64. It is kept C-contiguous, i.e. a flat row-major buffer plus a
    shape.
    """

    __slots__ = ("data", "name")

    def __init__(self, data, name=None):
        dtype = np.float32 if getattr(data, "dtype", None) == np.float32 else np.float64
        self.data = np.ascontiguousarray(data, dtype=dtype)
        self.name = name

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag})"


class ComputationTape:
    """Ordered record of differentiable operations.

    Each node is ``(out, inputs, backward_fn)`` where ``backward_fn``
    maps the output gradient to one gradient array (or None) per input.
    While ``backward`` runs, ``wanted`` holds the ids of the tensors whose
    gradient it computes.
    """

    def __init__(self):
        self.nodes = []
        self.wanted = frozenset()

    def needs_grad(self, t: Tensor) -> bool:
        """Whether the running backward pass wants ``t``'s gradient."""
        return id(t) in self.wanted

    def __len__(self):
        return len(self.nodes)

    def clear(self):
        self.nodes.clear()


_tape = ComputationTape()
_grad_enabled = True


def get_tape() -> ComputationTape:
    return _tape


@contextmanager
def no_grad():
    """Disable tape recording inside the block (evaluation passes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _make(out_data, inputs, backward_fn) -> Tensor:
    out = Tensor(out_data)
    if _grad_enabled:
        _tape.nodes.append((out, inputs, backward_fn))
    return out


def _same_shape(a: Tensor, b: Tensor) -> None:
    """Elementwise operands must have one shape: nothing is broadcast."""
    if a.data.shape != b.data.shape:
        raise DimensionError(f"elementwise shapes differ: {a.data.shape} and {b.data.shape}")


def backward(loss: Tensor, params) -> list:
    """The gradients of a scalar ``loss`` with respect to ``params``.

    Returns one array per parameter, in order, or None for a parameter
    that the loss does not reach.
    Only the tape's nodes that depend on ``params`` are replayed, and no
    product that would only feed another tensor is computed. The
    gradients are held in a dict local to this pass, so each call yields
    the plain derivative of this loss, never an accumulation across
    calls, and nothing is stored on any tensor.

    The loss must be a scalar (shape () or (1,)) and the tape non-empty.
    The tape is consumed as it is replayed: each node is popped before
    its rule runs, and each output's gradient is dropped once passed to
    that rule, so intermediates nothing else holds are freed during the
    pass. The tape is empty when the pass ends, whether it returns or
    a rule raises.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not _tape.nodes:
        raise ContractError("backward called with an empty tape")

    params = list(params)
    keep = {id(p) for p in params}
    wanted = set(keep)
    for out, inputs, _ in _tape.nodes:
        for t in inputs:
            if id(t) in wanted:
                wanted.add(id(out))
                break

    grads = {id(loss): np.ones_like(loss.data)} if id(loss) in wanted else {}
    _tape.wanted = wanted
    try:
        nodes = _tape.nodes
        while nodes:
            out, inputs, backward_fn = nodes.pop()
            g = grads.get(id(out)) if id(out) in keep else grads.pop(id(out), None)
            if g is None:
                continue
            for t, gi in zip(inputs, backward_fn(g)):
                if gi is None or id(t) not in wanted:
                    continue
                have = grads.get(id(t))
                grads[id(t)] = gi if have is None else have + gi
    finally:
        _tape.wanted = frozenset()
        _tape.clear()
    return [grads.get(id(p)) for p in params]


# ---------------------------------------------------------------------------
# operations


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b)
    out = a.data + b.data

    def back(g):
        return g, g

    return _make(out, (a, b), back)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b)
    out = a.data - b.data

    def back(g):
        return g, -g

    return _make(out, (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b)
    out = a.data * b.data

    def back(g):
        return (
            g * b.data if _tape.needs_grad(a) else None,
            g * a.data if _tape.needs_grad(b) else None,
        )

    return _make(out, (a, b), back)


def scale(a: Tensor, s: float) -> Tensor:
    """Multiply by a python float treated as a constant."""
    s = float(s)

    def back(g):
        return (g * s,)

    return _make(a.data * s, (a,), back)


def add_scalar(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def back(g):
        return (g,)

    return _make(a.data + s, (a,), back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul shapes do not conform: {a.data.shape} x {b.data.shape}")
    out = a.data @ b.data

    def back(g):
        return (
            g @ b.data.T if _tape.needs_grad(a) else None,
            a.data.T @ g if _tape.needs_grad(b) else None,
        )

    return _make(out, (a, b), back)


def affine(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Fused x @ weight + bias for a [batch, in] input."""
    if x.data.ndim != 2 or weight.data.ndim != 2 or x.data.shape[1] != weight.data.shape[0]:
        raise DimensionError(
            f"affine shapes do not conform: input {x.data.shape} vs weight {weight.data.shape}"
        )
    if bias.data.shape != (weight.data.shape[1],):
        raise DimensionError(
            f"affine bias shape {bias.data.shape} does not match weight {weight.data.shape}"
        )
    out = x.data @ weight.data + bias.data

    def back(g):
        return (
            g @ weight.data.T if _tape.needs_grad(x) else None,
            x.data.T @ g if _tape.needs_grad(weight) else None,
            g.sum(axis=0) if _tape.needs_grad(bias) else None,
        )

    return _make(out, (x, weight, bias), back)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0

    def back(g):
        return (g * mask,)

    return _make(np.where(mask, a.data, 0.0), (a,), back)


def leaky_relu(a: Tensor) -> Tensor:
    # the slope in the input's dtype: python floats would make it float64
    one, leak = np.asarray([1.0, LEAK], dtype=a.data.dtype)
    slope = np.where(a.data > 0.0, one, leak)

    def back(g):
        return (g * slope,)

    return _make(a.data * slope, (a,), back)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def back(g):
        return (g * (1.0 - out * out),)

    return _make(out, (a,), back)


def sigmoid(a: Tensor) -> Tensor:
    # piecewise form avoids exp overflow for large negative inputs
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)

    def back(g):
        return (g * out * (1.0 - out),)

    return _make(out, (a,), back)


def square(a: Tensor) -> Tensor:
    def back(g):
        return (g * 2.0 * a.data,)

    return _make(a.data * a.data, (a,), back)


def tsum(a: Tensor, axis=None) -> Tensor:
    out = a.data.sum(axis=axis)

    def back(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy(),)

    return _make(out, (a,), back)


def tmean(a: Tensor) -> Tensor:
    n = a.data.size
    out = a.data.mean()

    def back(g):
        return (np.broadcast_to(g / n, a.data.shape).copy(),)

    return _make(out, (a,), back)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)

    def back(g):
        return (g.reshape(a.data.shape),)

    return _make(a.data.reshape(shape), (a,), back)


def row_slice(a: Tensor, start: int, stop: int) -> Tensor:
    """Rows ``start`` .. ``stop - 1`` along axis 0: a view of ``a``'s rows,
    not a copy. Its gradient is ``g`` in those rows and zero elsewhere."""
    if not 0 <= start < stop <= a.data.shape[0]:
        raise DimensionError(f"rows {start}:{stop} outside a tensor of shape {a.data.shape}")

    def back(g):
        full = np.zeros_like(a.data)
        full[start:stop] = g
        return (full,)

    return _make(a.data[start:stop], (a,), back)


# ---------------------------------------------------------------------------
# parameter initialization


def uniform_init(shape, rng: np.random.Generator, name=None) -> Tensor:
    """Weight matrix drawn uniformly from +-sqrt(6 / (fan_in + fan_out))."""
    fan_in, fan_out = shape[0], shape[-1]
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-bound, bound, size=shape), name=name)


def zeros_init(shape, name=None) -> Tensor:
    return Tensor(np.zeros(shape), name=name)
