"""Embedding regression network: image -> per-category semantic vector.

Trained by mean squared error on seen categories only, then frozen. Once
frozen its parameters never change again, but gradients still flow
*through* it into its input, which is what lets the knowledge loss steer
a generator. The penultimate activation doubles as the feature space for
Frechet-distance evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ContractError, DimensionError
from .optim import AdamState, adam_step

HIDDEN = (128, 64)


@dataclass
class RegressorConfig:
    embed_dim: int = 64
    image_size: int = 16
    steps: int = 2000
    batch_size: int = 32
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    plateau_window: int = 300  # 0 disables early stop
    seed: int = 0


class RegressorModel:
    """MLP [3*S*S -> 128 -> 64 -> d] with leaky-relu hidden and sigmoid out."""

    def __init__(self, image_size: int, embed_dim: int, rng: np.random.Generator):
        self.image_size = image_size
        self.embed_dim = embed_dim
        in_dim = 3 * image_size * image_size
        h1, h2 = HIDDEN
        self.w1 = ad.uniform_init((in_dim, h1), rng, name="E.w1")
        self.b1 = ad.zeros_init((h1,), name="E.b1")
        self.w2 = ad.uniform_init((h1, h2), rng, name="E.w2")
        self.b2 = ad.zeros_init((h2,), name="E.b2")
        self.w3 = ad.uniform_init((h2, embed_dim), rng, name="E.w3")
        self.b3 = ad.zeros_init((embed_dim,), name="E.b3")
        self.frozen = False
        self.training_loss_history = []

    def parameters(self):
        return [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3]

    def _flatten(self, images: Tensor) -> Tensor:
        if images.data.ndim == 4:
            b = images.data.shape[0]
            return ad.reshape(images, (b, images.data.shape[1] * images.data.shape[2] * images.data.shape[3]))
        if images.data.ndim == 2:
            return images
        raise DimensionError(f"expected [b,3,S,S] or [b,in] input, got shape {images.data.shape}")

    def forward(self, images: Tensor) -> Tensor:
        """Differentiable forward pass; output entries in (0, 1).

        Exactly ``head(penultimate(images))``, so predictions made from
        already extracted features carry the same bits.
        """
        return self.head(self.penultimate(images))

    def penultimate(self, images: Tensor) -> Tensor:
        """The two leaky-relu hidden layers: [b, 64] features."""
        x = self._flatten(images)
        if x.data.shape[1] != self.w1.data.shape[0]:
            raise DimensionError(
                f"input dim {x.data.shape[1]} does not match model {self.w1.data.shape[0]}"
            )
        h1 = ad.leaky_relu(ad.affine(x, self.w1, self.b1))
        return ad.leaky_relu(ad.affine(h1, self.w2, self.b2))

    def head(self, features: Tensor) -> Tensor:
        """The sigmoid output layer over penultimate features."""
        return ad.sigmoid(ad.affine(features, self.w3, self.b3))


def extract_features(model: RegressorModel, images: np.ndarray) -> np.ndarray:
    """Penultimate-layer features for a [n,3,S,S] batch."""
    with ad.no_grad():
        feats = model.penultimate(Tensor(images, _validate=False))
    return feats.data


def freeze(model: RegressorModel) -> RegressorModel:
    """Fix the parameters; idempotent.

    Subsequent forward passes still backpropagate into their inputs, but
    parameter gradients are no longer computed, so no update can touch
    them.
    """
    model.frozen = True
    for p in model.parameters():
        p.requires_grad = False
    return model


def train_embedder(
    seen_samples,
    embeddings: dict,
    config: RegressorConfig,
    seen_ids=None,
    sampler_audit=None,
) -> RegressorModel:
    """Fit the regressor on seen-category samples by minibatch MSE.

    Every sample's category must have an embedding; when ``seen_ids`` is
    given, a sample from outside it is a contract violation. A plateau of
    ``plateau_window`` steps without a new best loss stops early.
    """
    samples = list(seen_samples)
    if not samples:
        raise ContractError("no training samples")
    for smp in samples:
        if smp.category_id not in embeddings:
            raise ContractError(f"category {smp.category_id} has no embedding")
        if seen_ids is not None and smp.category_id not in seen_ids:
            raise ContractError(f"unseen category {smp.category_id} in embedder training data")

    rng = np.random.default_rng(config.seed)
    model = RegressorModel(config.image_size, config.embed_dim, rng)
    images = np.stack([s.image for s in samples])
    targets = np.stack([embeddings[s.category_id].vector for s in samples])
    cat_ids = np.asarray([s.category_id for s in samples])
    n = len(samples)
    batch = min(config.batch_size, n)

    opt = AdamState.for_params(
        model.parameters(),
        learning_rate=config.learning_rate,
        beta1=config.beta1,
        beta2=config.beta2,
    )

    best = np.inf
    best_step = 0
    order = rng.permutation(n)
    pos = 0
    for step in range(config.steps):
        if pos + batch > n:
            order = rng.permutation(n)
            pos = 0
        idx = order[pos : pos + batch]
        pos += batch
        if sampler_audit is not None:
            sampler_audit.append(cat_ids[idx].copy())

        pred = model.forward(Tensor(images[idx], _validate=False))
        diff = ad.sub(pred, Tensor(targets[idx], _validate=False))
        loss = ad.scale(ad.tsum(ad.square(diff)), 1.0 / batch)
        ad.backward(loss)
        adam_step(model.parameters(), opt)

        value = loss.item()
        model.training_loss_history.append(value)
        if value < best - 1e-12:
            best = value
            best_step = step
        if config.plateau_window and step - best_step >= config.plateau_window:
            break
    return model


def save_regressor(path, model: RegressorModel) -> None:
    save_checkpoint(path, {p.name: p.data for p in model.parameters()}, {"kind": "regressor"})


def load_regressor(path, image_size: int, embed_dim: int) -> RegressorModel:
    model = RegressorModel(image_size, embed_dim, np.random.default_rng(0))
    template = {p.name: p.data for p in model.parameters()}
    state, _ = load_checkpoint(path, template=template, expect={"kind": "regressor"})
    for p in model.parameters():
        p.data = state[p.name]
    return model
