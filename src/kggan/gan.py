"""Conditional GAN with a single weight-shared generator, a projection
discriminator under spectral normalization, hinge adversarial losses, and
a knowledge loss that penalizes disagreement with a frozen embedding
regressor.

Seen categories train through both the adversarial loss and the knowledge
loss; unseen categories, which have no real images, train through the
knowledge loss alone. One parameter set serves both roles: "seen" and
"unseen" generation differ only in the condition vector fed in.

All randomness is re-derived per iteration from (seed, iteration, stream),
so a run can be checkpointed and resumed bit-exactly without serializing
generator state:

    stream 0: real-batch sampling         stream 1: D-step fakes
    stream 2: G-step fakes                stream 3: unseen-condition fakes

The SN-GAN baseline is ``train`` with lambda_se = 0, every category seen
and none unseen: no regressor, no unseen batches, streams 0-2 only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ContractError, DimensionError, NumericalAbort
from .optim import AdamState, adam_step
from .regressor import RegressorModel
from .spectral import init_spectral_state, power_iteration_step, spectral_normalize

CONDITION_SEMANTIC = "semantic_embedding"
CONDITION_ONE_HOT = "one_hot"

_MASK64 = 0xFFFFFFFFFFFFFFFF

LEAK = 0.1


@dataclass
class TrainConfig:
    lambda_se: float = 0.1
    iterations: int = 3000
    batch_size: int = 16
    z_dim: int = 16
    d_steps_per_g_step: int = 1
    seed: int = 0
    learning_rate: float = 2e-4
    beta1: float = 0.0
    beta2: float = 0.9


class ConditionSource:
    """Category id -> condition vector lookup."""

    def __init__(self, mode: str, table: dict):
        self.mode = mode
        self._table = {int(k): np.asarray(v, dtype=np.float64) for k, v in table.items()}
        self.dim = len(next(iter(self._table.values())))

    def vector(self, category_id: int) -> np.ndarray:
        return self._table[int(category_id)]

    def batch(self, category_ids) -> np.ndarray:
        return np.stack([self._table[int(c)] for c in category_ids])


def semantic_condition_source(embeddings: dict) -> ConditionSource:
    return ConditionSource(CONDITION_SEMANTIC, {cid: e.vector for cid, e in embeddings.items()})


def condition_preconditioner(embeddings: dict, alpha: float = 0.5):
    """Fixed partial whitening of the category-embedding table.

    Returns (matrix, shift) such that (v - shift) @ matrix rescales the
    principal axes of the embedding cloud by eigenvalue^(-alpha),
    normalized so the transformed vectors have roughly unit norm.
    alpha = 0.5 is full whitening (identity sample covariance); smaller
    values keep proportionally more of the raw anisotropy, preserving
    the similarity structure interpolation relies on.

    Applying this inside the networks is a reparametrization of their
    first condition-facing weights, not a change of conditioning: any
    learned map of the transformed vector equals a learned map of v
    itself. Raw hashed bag-of-words embeddings share most of their mass
    across categories, which makes gradient descent on the raw
    coordinates oscillate along the common direction while barely
    separating categories; the rescaling equalizes those learning
    speeds.
    """
    table = np.stack([embeddings[cid].vector for cid in sorted(embeddings)])
    n, dim = table.shape
    shift = table.mean(axis=0)
    centered = table - shift
    cov = centered.T @ centered / max(n - 1, 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    keep = eigvals > 1e-10
    gains = np.where(keep, np.power(np.maximum(eigvals, 1e-10), -alpha), 0.0)
    matrix = (eigvecs * gains) @ eigvecs.T
    transformed = centered @ matrix
    scale = float(np.sqrt(np.mean(np.sum(transformed**2, axis=1))))
    if scale > 0.0:
        matrix = matrix / scale
    return matrix, shift


def one_hot_condition_source(category_ids) -> ConditionSource:
    ids = sorted(int(c) for c in category_ids)
    n = len(ids)
    table = {}
    for pos, cid in enumerate(ids):
        vec = np.zeros(n)
        vec[pos] = 1.0
        table[cid] = vec
    return ConditionSource(CONDITION_ONE_HOT, table)


class GanModel:
    """Generator and projection discriminator with spectral state.

    The generator is one parameter set; conditioning on a seen or an
    unseen category invokes the same tensors.
    """

    def __init__(
        self,
        image_size: int,
        cond_dim: int,
        condition_mode: str,
        rng: np.random.Generator,
        z_dim: int = 16,
        g_hidden: int = 128,
        d_hidden: int = 128,
        feat_dim: int = 64,
    ):
        if condition_mode not in (CONDITION_SEMANTIC, CONDITION_ONE_HOT):
            raise ContractError(f"unknown condition mode {condition_mode!r}")
        self.image_size = image_size
        self.cond_dim = cond_dim
        self.condition_mode = condition_mode
        self.z_dim = z_dim
        out_dim = 3 * image_size * image_size

        self.gw1 = ad.uniform_init((z_dim + cond_dim, g_hidden), rng, name="G.w1")
        self.gb1 = ad.zeros_init((g_hidden,), name="G.b1")
        self.gw2 = ad.uniform_init((g_hidden, g_hidden), rng, name="G.w2")
        self.gb2 = ad.zeros_init((g_hidden,), name="G.b2")
        self.gw3 = ad.uniform_init((g_hidden, out_dim), rng, name="G.w3")
        self.gb3 = ad.zeros_init((out_dim,), name="G.b3")

        self.dw1 = ad.uniform_init((out_dim, d_hidden), rng, name="D.w1")
        self.db1 = ad.zeros_init((d_hidden,), name="D.b1")
        self.dw2 = ad.uniform_init((d_hidden, feat_dim), rng, name="D.w2")
        self.db2 = ad.zeros_init((feat_dim,), name="D.b2")
        self.psi_w = ad.uniform_init((feat_dim, 1), rng, name="D.psi_w")
        self.psi_b = ad.zeros_init((1,), name="D.psi_b")
        self.v_proj = ad.uniform_init((cond_dim, feat_dim), rng, name="D.v_proj")

        self.spectral = {
            "dw1": init_spectral_state(out_dim, rng),
            "dw2": init_spectral_state(d_hidden, rng),
            "psi_w": init_spectral_state(feat_dim, rng),
            "v_proj": init_spectral_state(cond_dim, rng),
        }

        # fixed condition reparametrization (identity unless preconditioned)
        self.cond_transform = Tensor(np.eye(cond_dim), _validate=False)
        self.cond_shift = Tensor(np.zeros(cond_dim), _validate=False)

    def set_condition_preconditioner(self, matrix: np.ndarray, shift: np.ndarray) -> None:
        if matrix.shape != (self.cond_dim, self.cond_dim) or shift.shape != (self.cond_dim,):
            raise DimensionError(
                f"preconditioner shapes {matrix.shape}/{shift.shape} do not match "
                f"cond_dim {self.cond_dim}"
            )
        self.cond_transform = Tensor(matrix, _validate=False)
        self.cond_shift = Tensor(shift, _validate=False)

    def _condition_input(self, v: Tensor) -> Tensor:
        return ad.matmul(ad.sub(v, self.cond_shift), self.cond_transform)

    def generator_params(self):
        return [self.gw1, self.gb1, self.gw2, self.gb2, self.gw3, self.gb3]

    def discriminator_params(self):
        return [self.dw1, self.db1, self.dw2, self.db2, self.psi_w, self.psi_b, self.v_proj]

    def spectral_weights(self):
        return [("dw1", self.dw1), ("dw2", self.dw2), ("psi_w", self.psi_w), ("v_proj", self.v_proj)]

    def refresh_spectral(self):
        """One power-iteration step per discriminator weight."""
        for name, weight in self.spectral_weights():
            power_iteration_step(weight, self.spectral[name])


def generator_forward(model: GanModel, z: Tensor, v: Tensor) -> Tensor:
    """tanh MLP over the concatenated [noise ; condition] input."""
    if v.data.ndim != 2 or v.data.shape[1] != model.cond_dim:
        raise DimensionError(
            f"condition shape {v.data.shape} does not match cond_dim {model.cond_dim}"
        )
    if z.data.ndim != 2 or z.data.shape[0] != v.data.shape[0]:
        raise DimensionError(f"noise shape {z.data.shape} does not pair with {v.data.shape}")
    x = ad.concat([z, model._condition_input(v)], axis=1)
    h1 = ad.leaky_relu(ad.affine(x, model.gw1, model.gb1), LEAK)
    h2 = ad.leaky_relu(ad.affine(h1, model.gw2, model.gb2), LEAK)
    flat = ad.tanh(ad.affine(h2, model.gw3, model.gb3))
    b = z.data.shape[0]
    return ad.reshape(flat, (b, 3, model.image_size, model.image_size))


def discriminator_forward(model: GanModel, x: Tensor, v: Tensor) -> Tensor:
    """Projection score psi(phi(x)) + <v, V phi(x)>, weights normalized."""
    if x.data.ndim == 4:
        b = x.data.shape[0]
        x = ad.reshape(x, (b, x.data.shape[1] * x.data.shape[2] * x.data.shape[3]))
    if v.data.ndim != 2 or v.data.shape[1] != model.cond_dim:
        raise DimensionError(
            f"condition shape {v.data.shape} does not match cond_dim {model.cond_dim}"
        )
    w1 = spectral_normalize(model.dw1, model.spectral["dw1"])
    w2 = spectral_normalize(model.dw2, model.spectral["dw2"])
    psi_w = spectral_normalize(model.psi_w, model.spectral["psi_w"])
    v_proj = spectral_normalize(model.v_proj, model.spectral["v_proj"])

    h = ad.leaky_relu(ad.affine(x, w1, model.db1), LEAK)
    phi = ad.leaky_relu(ad.affine(h, w2, model.db2), LEAK)
    psi = ad.affine(phi, psi_w, model.psi_b)
    proj = ad.tsum(ad.mul(ad.matmul(model._condition_input(v), v_proj), phi), axis=1)
    return ad.add(ad.reshape(psi, (x.data.shape[0],)), proj)


# ---------------------------------------------------------------------------
# losses


def hinge_d_loss(real_scores: Tensor, fake_scores: Tensor) -> Tensor:
    """mean(max(0, 1 - real)) + mean(max(0, 1 + fake))."""
    if real_scores.data.size == 0 or fake_scores.data.size == 0:
        raise ContractError("hinge loss over an empty batch")
    real_term = ad.tmean(ad.relu(ad.add_scalar(ad.neg(real_scores), 1.0)))
    fake_term = ad.tmean(ad.relu(ad.add_scalar(fake_scores, 1.0)))
    return ad.add(real_term, fake_term)


def hinge_g_loss(fake_scores: Tensor) -> Tensor:
    """-mean(fake scores)."""
    if fake_scores.data.size == 0:
        raise ContractError("hinge loss over an empty batch")
    return ad.neg(ad.tmean(fake_scores))


def semantic_embedding_loss(fake_images: Tensor, v: Tensor, embedder: RegressorModel) -> Tensor:
    """Mean squared distance between predicted and target embeddings.

    The regressor must be frozen; gradients reach the generator through
    it but its own parameters receive none.
    """
    if not embedder.frozen:
        raise ContractError("semantic embedding loss requires a frozen regressor")
    if v.data.ndim != 2 or v.data.shape[1] != embedder.embed_dim:
        raise DimensionError(
            f"target shape {v.data.shape} does not match embed_dim {embedder.embed_dim}"
        )
    pred = embedder.forward(fake_images)
    diff = ad.sub(pred, v)
    return ad.scale(ad.tsum(ad.square(diff)), 1.0 / fake_images.data.shape[0])


# ---------------------------------------------------------------------------
# training


@dataclass
class MetricLog:
    """Per-iteration record: (iteration, L_D, L_G, L_se_seen, L_se_unseen)."""

    rows: list = field(default_factory=list)

    def to_csv_text(self, header_lines=()) -> str:
        lines = [f"# {line}" for line in header_lines]
        lines.append("iteration,L_D,L_G,L_se_seen,L_se_unseen")
        for it, l_d, l_g, se_s, se_u in self.rows:
            lines.append(f"{it},{l_d!r},{l_g!r},{se_s!r},{se_u!r}")
        return "\n".join(lines) + "\n"


def _stream(seed: int, iteration: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([seed & _MASK64, iteration, stream])
    )


def _pool_and_cats(dataset, category_ids):
    cats = np.asarray(sorted(int(c) for c in category_ids), dtype=np.int64)
    pool = np.nonzero(np.isin(dataset.category_ids, cats))[0]
    if pool.size == 0:
        raise ContractError("no training samples for the requested categories")
    return pool, cats


def _d_step(model, opt_d, dataset, pool, cats, cond, config, rng_real, rng_z, audit):
    rows = pool[rng_real.integers(0, pool.size, size=config.batch_size)]
    x_real = dataset.images[rows]
    real_cats = dataset.category_ids[rows]
    if audit is not None:
        audit.append(real_cats.copy())

    # fakes share the real batch's conditions: pairing them keeps the
    # projection term's real-vs-fake contrast on the same categories
    fake_cats = real_cats
    z = rng_z.standard_normal((config.batch_size, config.z_dim))
    with ad.no_grad():
        fakes = generator_forward(
            model, Tensor(z, _validate=False), Tensor(cond.batch(fake_cats), _validate=False)
        )
    d_real = discriminator_forward(
        model, Tensor(x_real, _validate=False), Tensor(cond.batch(real_cats), _validate=False)
    )
    d_fake = discriminator_forward(
        model, Tensor(fakes.data, _validate=False), Tensor(cond.batch(fake_cats), _validate=False)
    )
    loss = hinge_d_loss(d_real, d_fake)
    value = loss.item()
    ad.backward(loss, model.discriminator_params())
    adam_step(model.discriminator_params(), opt_d)
    return value


def _g_adv(model, cats, cond, config, rng_z):
    g_cats = cats[rng_z.integers(0, cats.size, size=config.batch_size)]
    z = rng_z.standard_normal((config.batch_size, config.z_dim))
    fakes = generator_forward(
        model, Tensor(z, _validate=False), Tensor(cond.batch(g_cats), _validate=False)
    )
    scores = discriminator_forward(model, fakes, Tensor(cond.batch(g_cats), _validate=False))
    return fakes, g_cats, hinge_g_loss(scores)


def _embedding_targets(embeddings, category_ids) -> np.ndarray:
    return np.stack([embeddings[int(c)].vector for c in category_ids])


def _finite_or_abort(values, snapshot, iteration):
    for v in values:
        if not np.isfinite(v):
            raise NumericalAbort(
                f"non-finite loss at iteration {iteration}",
                last_good=snapshot,
                iteration=iteration,
            )


def _make_optimizers(model, config, opt_g, opt_d):
    if opt_g is None:
        opt_g = AdamState.for_params(
            model.generator_params(),
            learning_rate=config.learning_rate,
            beta1=config.beta1,
            beta2=config.beta2,
        )
    if opt_d is None:
        opt_d = AdamState.for_params(
            model.discriminator_params(),
            learning_rate=config.learning_rate,
            beta1=config.beta1,
            beta2=config.beta2,
        )
    return opt_g, opt_d


def train(
    model: GanModel,
    dataset,
    split,
    embeddings: dict,
    embedder,
    config: TrainConfig,
    cond: ConditionSource | None = None,
    start_iteration: int = 0,
    opt_g: AdamState | None = None,
    opt_d: AdamState | None = None,
    log: MetricLog | None = None,
    audit=None,
):
    """Category-dependent training: seen batches drive the adversarial and
    knowledge losses, unseen batches the knowledge loss alone.

    Real images are only ever drawn from seen categories. With
    lambda_se = 0 the unseen machinery is skipped entirely and the run is
    an SN-GAN run; the split may then have no unseen categories, which is
    how the full-data baseline trains on every category. Returns
    (model, MetricLog).
    """
    if not np.isfinite(config.lambda_se) or config.lambda_se < 0.0:
        raise ContractError(f"lambda_se must be finite and >= 0, got {config.lambda_se}")
    if config.lambda_se > 0.0:
        if embedder is None or not embedder.frozen:
            raise ContractError("training with lambda_se > 0 requires a frozen regressor")
    dataset_cats = set(int(c) for c in np.unique(dataset.category_ids))
    if split.seen_ids & split.unseen_ids:
        raise ContractError("split has overlapping seen and unseen ids")
    if config.lambda_se > 0.0 and not split.unseen_ids:
        raise ContractError("lambda_se > 0 requires unseen categories")
    if not split.seen_ids <= dataset_cats:
        raise ContractError("split names categories absent from the dataset")

    if cond is None:
        if model.condition_mode == CONDITION_SEMANTIC:
            cond = semantic_condition_source(embeddings)
        else:
            cond = one_hot_condition_source(sorted(dataset_cats))
    pool, seen_cats = _pool_and_cats(dataset, split.seen_ids)
    unseen_cats = np.asarray(sorted(split.unseen_ids), dtype=np.int64)

    opt_g, opt_d = _make_optimizers(model, config, opt_g, opt_d)
    if log is None:
        log = MetricLog()

    for iteration in range(start_iteration, config.iterations):
        # held by reference: adam_step and power_iteration_step write new
        # arrays, so this stays the state at the start of the iteration
        snapshot = gan_state(model, opt_g, opt_d, iteration)
        model.refresh_spectral()
        rng_real = _stream(config.seed, iteration, 0)
        rng_zd = _stream(config.seed, iteration, 1)

        try:
            l_d = 0.0
            for _ in range(config.d_steps_per_g_step):
                l_d = _d_step(
                    model, opt_d, dataset, pool, seen_cats, cond, config, rng_real, rng_zd, audit
                )

            rng_zg = _stream(config.seed, iteration, 2)
            fakes, g_cats, adv = _g_adv(model, seen_cats, cond, config, rng_zg)
            if config.lambda_se > 0.0:
                se_seen_t = semantic_embedding_loss(
                    fakes, Tensor(_embedding_targets(embeddings, g_cats), _validate=False), embedder
                )
                rng_u = _stream(config.seed, iteration, 3)
                u_cats = unseen_cats[rng_u.integers(0, unseen_cats.size, size=config.batch_size)]
                z_u = rng_u.standard_normal((config.batch_size, config.z_dim))
                fakes_u = generator_forward(
                    model, Tensor(z_u, _validate=False), Tensor(cond.batch(u_cats), _validate=False)
                )
                se_unseen_t = semantic_embedding_loss(
                    fakes_u, Tensor(_embedding_targets(embeddings, u_cats), _validate=False), embedder
                )
                se_seen = se_seen_t.item()
                se_unseen = se_unseen_t.item()
                loss_g = ad.add(adv, ad.scale(ad.add(se_seen_t, se_unseen_t), config.lambda_se))
            else:
                se_seen = 0.0
                se_unseen = 0.0
                loss_g = adv
            l_g = loss_g.item()
            ad.backward(loss_g, model.generator_params())
            adam_step(model.generator_params(), opt_g)
        except NumericalAbort as abort:
            ad.get_tape().clear()
            raise NumericalAbort(str(abort), last_good=snapshot, iteration=iteration) from None

        _finite_or_abort((l_d, l_g, se_seen, se_unseen), snapshot, iteration)
        log.rows.append((iteration, l_d, l_g, se_seen, se_unseen))
    return model, log


# ---------------------------------------------------------------------------
# sampling and persistence


def sample_images(model: GanModel, category_id: int, n: int, cond: ConditionSource, seed: int):
    """n generated images for one category; deterministic in (seed, id)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed & _MASK64, int(category_id)]))
    z = rng.standard_normal((n, model.z_dim))
    v = np.tile(cond.vector(category_id), (n, 1))
    with ad.no_grad():
        images = generator_forward(model, Tensor(z, _validate=False), Tensor(v, _validate=False))
    return images.data


def gan_state(model: GanModel, opt_g: AdamState, opt_d: AdamState, iteration: int) -> dict:
    """The named state a resume needs, holding the live arrays (no copies)."""
    state = {p.name: p.data for p in model.generator_params() + model.discriminator_params()}
    state["cond.transform"] = model.cond_transform.data
    state["cond.shift"] = model.cond_shift.data
    for key, weight in model.spectral_weights():
        spec = model.spectral[key]
        state[f"spectral.{weight.name}.u"] = spec.u
        state[f"spectral.{weight.name}.sigma"] = np.asarray(spec.sigma_estimate, dtype=np.float64)
        state[f"spectral.{weight.name}.steps"] = np.asarray(spec.steps, dtype=np.float64)
        state[f"spectral.{weight.name}.degenerate"] = np.asarray(spec.degenerate, dtype=np.float64)
    for tag, opt, params in (
        ("adam_g", opt_g, model.generator_params()),
        ("adam_d", opt_d, model.discriminator_params()),
    ):
        for p, m, v in zip(params, opt.first_moment, opt.second_moment):
            state[f"{tag}.m.{p.name}"] = m
            state[f"{tag}.v.{p.name}"] = v
        state[f"{tag}.step"] = np.asarray(opt.step_count, dtype=np.float64)
    state["iteration"] = np.asarray(iteration, dtype=np.float64)
    return state


def save_gan(
    path, model: GanModel, opt_g: AdamState, opt_d: AdamState, iteration: int, run=None
) -> None:
    """Write the named state; ``run`` adds metadata a resume compares."""
    save_gan_state(path, gan_state(model, opt_g, opt_d, iteration), model.condition_mode, run)


def save_gan_state(path, state: dict, condition_mode: str, run=None) -> None:
    """Write a named state: a ``gan_state`` or an abort's ``last_good``."""
    metadata = {"kind": "gan", "condition_mode": condition_mode, "iteration": int(state["iteration"])}
    save_checkpoint(path, state, {**metadata, **(run or {})})


def load_gan(path, model: GanModel, config: TrainConfig, run=None):
    """Restore parameters, spectral state, and optimizers into ``model``.

    The model must be freshly built with the same architecture config.
    Every field of ``run`` must match the checkpoint's metadata, after
    its kind and condition mode. Returns (model, opt_g, opt_d, iteration).
    """
    opt_g, opt_d = _make_optimizers(model, config, None, None)
    expect = {"kind": "gan", "condition_mode": model.condition_mode, **(run or {})}
    live = gan_state(model, opt_g, opt_d, 0)
    state, _ = load_checkpoint(path, template=live, expect=expect)
    # the arrays are the fresh model's and optimizers' own; the scalars are copies
    for name, arr in live.items():
        arr[...] = state[name]
    for key, weight in model.spectral_weights():
        spec = model.spectral[key]
        spec.sigma_estimate = float(state[f"spectral.{weight.name}.sigma"])
        spec.steps = int(state[f"spectral.{weight.name}.steps"])
        spec.degenerate = bool(state[f"spectral.{weight.name}.degenerate"])
    opt_g.step_count = int(state["adam_g.step"])
    opt_d.step_count = int(state["adam_d.step"])
    return model, opt_g, opt_d, int(state["iteration"])
