"""Embedding regression network: image -> per-category semantic vector.

Trained by mean squared error on seen categories only, then frozen:
frozen means no optimizer holds its parameters, so nothing steps them.
Gradients still flow *through* it into its input, which is what lets the
knowledge loss L_se steer a generator. L_se, ``semantic_embedding_loss``,
is written once, over predictions: the embedder trains on it, and the
GAN takes it over each half of one stacked regressor pass
(``gan._g_loss``). The regressor's input is [b, 3*S*S] image rows, the
dataset's [3, S, S] layout flattened; ``extract_features`` and
``train_embedder`` flatten the images they are given. The penultimate
activation doubles as the feature space for Frechet-distance evaluation.

The regressor computes in float32, as the GAN does: its parameters are
drawn in float64 and rounded once, and ``train_embedder`` and
``extract_features`` round their images to float32 where they enter it
(a dataset's images already are), so its checkpoint holds float32 arrays
and the features it gives the evaluation are float32. The GAN's
knowledge loss runs it as it is. The FID statistics widen its features
to float64 (``evaluation.feature_stats``).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ExperimentConfig, config_fields
from .optim import AdamState, adam_step
from .synthdata import DATASET_FIELDS

HIDDEN = (128, 64)

# the embedder's Adam betas; its learning rate is config.embedder_lr
BETA1 = 0.9
BETA2 = 0.999

# the config fields a trained embedder depends on: its data, the split
# that picks its categories, and its training
EMBEDDER_FIELDS = DATASET_FIELDS + (
    "n_unseen", "split_seed", "embedder_seed", "embedder_steps", "embedder_batch",
    "embedder_lr", "embedder_plateau",
)


class RegressorModel:
    """MLP [3*S*S -> 128 -> 64 -> d] with leaky-relu hidden and sigmoid out;
    every parameter is float32, its float64 draw rounded."""

    def __init__(self, image_size: int, embed_dim: int, rng: np.random.Generator):
        in_dim = 3 * image_size * image_size
        h1, h2 = HIDDEN
        self.w1 = ad.uniform_init((in_dim, h1), rng, name="E.w1")
        self.b1 = ad.zeros_init((h1,), name="E.b1")
        self.w2 = ad.uniform_init((h1, h2), rng, name="E.w2")
        self.b2 = ad.zeros_init((h2,), name="E.b2")
        self.w3 = ad.uniform_init((h2, embed_dim), rng, name="E.w3")
        self.b3 = ad.zeros_init((embed_dim,), name="E.b3")
        for p in self.parameters():
            p.data = p.data.astype(np.float32)
        self.training_loss_history = []

    def parameters(self):
        return [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3]

    def forward(self, images: Tensor) -> Tensor:
        """Differentiable forward pass over [b, 3*S*S] image rows; output
        entries in (0, 1).

        Exactly ``head(penultimate(images))``, so predictions made from
        already extracted features carry the same bits.
        """
        return self.head(self.penultimate(images))

    def penultimate(self, images: Tensor) -> Tensor:
        """The two leaky-relu hidden layers: [b, 64] features."""
        h1 = ad.leaky_relu(ad.affine(images, self.w1, self.b1))
        return ad.leaky_relu(ad.affine(h1, self.w2, self.b2))

    def head(self, features: Tensor) -> Tensor:
        """The sigmoid output layer over penultimate features."""
        return ad.sigmoid(ad.affine(features, self.w3, self.b3))


def extract_features(model: RegressorModel, images: np.ndarray) -> np.ndarray:
    """Penultimate-layer float32 features for a [n, 3, S, S] batch of any
    float dtype, rounded to float32 as it enters."""
    with ad.no_grad():
        feats = model.penultimate(Tensor(images.reshape(len(images), -1).astype(np.float32)))
    return feats.data


def semantic_embedding_loss(predictions: Tensor, targets: Tensor) -> Tensor:
    """L_se: the mean over the batch of the squared distance between the
    [b, d] embeddings a regressor predicts and the [b, d] ``targets``.

    Gradients reach whatever produced ``predictions``; a regressor's own
    parameters get one only if passed to ``backward``, which only
    ``train_embedder`` does. The targets are a constant: they enter
    negated, so the difference is one ``autodiff.add``, and targets of
    another shape raise its DimensionError, naming both shapes.
    """
    diff = ad.add(predictions, Tensor(-targets.data))
    return ad.scale(ad.tsum(ad.mul(diff, diff)), 1.0 / predictions.data.shape[0])


def train_embedder(
    images: np.ndarray,
    category_ids: np.ndarray,
    embeddings: np.ndarray,
    config: ExperimentConfig,
) -> RegressorModel:
    """Fit the regressor on seen-category samples by minibatch MSE.

    ``images`` is [n, 3, S, S] and ``category_ids`` [n], n >= 1; sample
    k's target is row ``category_ids[k]`` of the [n_categories, d]
    ``embeddings`` table, rounded to float32 once, here. The caller picks
    the rows: ``cli`` passes the seen rows of a dataset ``load_dataset``
    verified, so no unseen category's image reaches the embedder.

    Reads from the ``ExperimentConfig``: ``image_size`` and ``embed_dim``
    (the model), ``embedder_seed`` (initialization and batch order),
    ``embedder_steps``, ``embedder_batch`` (capped at n) and
    ``embedder_lr`` (Adam, with the constant betas ``BETA1``, ``BETA2``).
    A plateau of ``embedder_plateau`` steps without a new best loss stops
    early; 0 never stops.
    """
    n = len(category_ids)
    rng = np.random.default_rng(config.embedder_seed)
    model = RegressorModel(config.image_size, config.embed_dim, rng)
    targets = embeddings.astype(np.float32)[category_ids]
    batch = min(config.embedder_batch, n)

    params = model.parameters()
    opt = AdamState.for_params(params, learning_rate=config.embedder_lr, beta1=BETA1, beta2=BETA2)

    best = np.inf
    best_step = 0
    order = rng.permutation(n)
    pos = 0
    for step in range(config.embedder_steps):
        if pos + batch > n:
            order = rng.permutation(n)
            pos = 0
        idx = order[pos : pos + batch]
        pos += batch

        rows = Tensor(images[idx].reshape(batch, -1).astype(np.float32))
        loss = semantic_embedding_loss(model.forward(rows), Tensor(targets[idx]))
        adam_step(params, opt, ad.backward(loss, params), step + 1)

        value = loss.item()
        model.training_loss_history.append(value)
        if value < best - 1e-12:
            best = value
            best_step = step
        if config.embedder_plateau and step - best_step >= config.embedder_plateau:
            break
    return model


def save_regressor(path, model: RegressorModel, config: ExperimentConfig) -> None:
    """The parameters, recording the EMBEDDER_FIELDS of the ``config`` trained on."""
    metadata = {"kind": "regressor", **config_fields(config, EMBEDDER_FIELDS)}
    save_checkpoint(path, {p.name: p.data for p in model.parameters()}, metadata)


def load_regressor(path, config: ExperimentConfig) -> RegressorModel:
    """The embedder ``save_regressor`` wrote; it must record this
    ``config``'s EMBEDDER_FIELDS, or a ContractError names the first that differs."""
    model = RegressorModel(config.image_size, config.embed_dim, np.random.default_rng(0))
    template = {p.name: p.data for p in model.parameters()}
    expect = {"kind": "regressor", **config_fields(config, EMBEDDER_FIELDS)}
    state, _ = load_checkpoint(path, template=template, expect=expect)
    for p in model.parameters():
        p.data = state[p.name]
    return model
