"""Reverse-mode automatic differentiation over dense float64 tensors.

A module-level tape records every differentiable operation in execution
order, so operands always precede the nodes that use them. ``backward``
first wipes stale gradients on every tensor the tape touches, seeds the
loss with ones, then replays the tape exactly once in reverse, summing
contributions into ``.grad``. The tape is cleared afterwards, which makes
each forward/backward round self-contained: repeating the same forward
pass yields the same gradients. Given the parameters it is to
differentiate, ``backward`` replays only the nodes that depend on them,
and the product rules (affine, matmul, mul) skip the product for any
input whose gradient is not wanted.

Gradient arrays are never mutated in place; accumulation always allocates,
so it is safe for a backward rule to hand back the incoming gradient
object itself (as ``add`` does).
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, DimensionError


class Tensor:
    """A dense float64 array with optional gradient tracking.

    ``data`` is kept C-contiguous, i.e. a flat row-major buffer plus a
    shape. ``grad`` is populated by ``backward`` and always matches
    ``data``'s shape.
    """

    __slots__ = ("data", "requires_grad", "grad", "name")

    def __init__(self, data, requires_grad=False, name=None, _validate=True):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if _validate and not np.all(np.isfinite(arr)):
            raise ContractError("tensor data contains non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad}{tag})"


class ComputationTape:
    """Ordered record of differentiable operations.

    Each node is ``(out, inputs, backward_fn)`` where ``backward_fn``
    maps the output gradient to one gradient array (or None) per input.
    While ``backward`` runs, ``wanted`` holds the ids of the tensors whose
    gradient it computes.
    """

    def __init__(self):
        self.nodes = []
        self.wanted = None

    def needs_grad(self, t: Tensor) -> bool:
        """Whether the running backward pass wants ``t``'s gradient;
        outside one, whether ``t`` requires a gradient at all."""
        if self.wanted is None:
            return t.requires_grad
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
    track = _grad_enabled and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=track, _validate=False)
    if track:
        _tape.nodes.append((out, inputs, backward_fn))
    return out


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64), _validate=False)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient down to the shape numpy broadcast it up from."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def backward(loss: Tensor, params=None) -> None:
    """Populate ``.grad`` on the requires_grad tensors reachable from loss.

    With ``params`` given, only those of them that require a gradient, and
    the tape's results that depend on them, receive one; every other
    tensor on the tape is left with ``.grad`` None, and the products that
    would only feed it are never computed. The gradients that are filled
    carry the same bits as from a full pass.

    The loss must be a scalar (shape () or (1,)) and the tape non-empty.
    All gradients belonging to the current tape (and to ``params``) are
    reset first, so each call yields the plain derivative of this loss,
    not an accumulation across calls. The tape is cleared before
    returning.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not _tape.nodes:
        raise ContractError("backward called with an empty tape")

    if params is None:
        wanted = {id(t) for out, inputs, _ in _tape.nodes for t in (out, *inputs) if t.requires_grad}
    else:
        params = list(params)
        wanted = {id(p) for p in params if p.requires_grad}
        for out, inputs, _ in _tape.nodes:
            for t in inputs:
                if id(t) in wanted:
                    wanted.add(id(out))
                    break
        for p in params:
            p.grad = None

    for out, inputs, _ in _tape.nodes:
        out.grad = None
        for t in inputs:
            t.grad = None

    loss.grad = np.ones_like(loss.data)
    _tape.wanted = wanted
    try:
        for out, inputs, backward_fn in reversed(_tape.nodes):
            g = out.grad
            if g is None or id(out) not in wanted:
                continue
            for t, gi in zip(inputs, backward_fn(g)):
                if gi is None or id(t) not in wanted:
                    continue
                t.grad = gi if t.grad is None else t.grad + gi
    finally:
        _tape.wanted = None
    _tape.clear()


# ---------------------------------------------------------------------------
# operations


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data + b.data

    def back(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make(out, (a, b), back)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data - b.data

    def back(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _make(out, (a, b), back)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data * b.data

    def back(g):
        return (
            _unbroadcast(g * b.data, a.data.shape) if _tape.needs_grad(a) else None,
            _unbroadcast(g * a.data, b.data.shape) if _tape.needs_grad(b) else None,
        )

    return _make(out, (a, b), back)


def neg(a: Tensor) -> Tensor:
    def back(g):
        return (-g,)

    return _make(-a.data, (a,), back)


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


def leaky_relu(a: Tensor, alpha: float = 0.1) -> Tensor:
    slope = np.where(a.data > 0.0, 1.0, alpha)

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


def concat(tensors, axis: int = 1) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    bounds = np.cumsum([0] + sizes)

    def back(g):
        return tuple(
            np.take(g, np.arange(bounds[i], bounds[i + 1]), axis=axis)
            for i in range(len(tensors))
        )

    return _make(out, tuple(tensors), back)


# ---------------------------------------------------------------------------
# parameter initialization


def uniform_init(shape, rng: np.random.Generator, name=None) -> Tensor:
    """Weight matrix drawn uniformly from +-sqrt(6 / (fan_in + fan_out))."""
    fan_in, fan_out = shape[0], shape[-1]
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True, name=name)


def zeros_init(shape, name=None) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True, name=name)
