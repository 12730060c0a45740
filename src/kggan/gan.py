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

Each step runs each network once over stacked rows. D's step scores the
real batch and its fakes in one discriminator pass, so both halves are
scored with one set of normalized weights. At lambda_se > 0, G's step
makes the seen and the unseen fakes in one generator pass, and the
regressor predicts all their embeddings in one pass; D scores the seen
half. No layer of either network mixes rows (no batch statistics), so
the stacked pass computes the same function and, summed over the same
rows, the same gradients as one pass per batch. Only the float rounding
of the weight gradients' sums can differ.

The networks take rows. An image is a row of 3*S*S values, the dataset's
[3, S, S] layout flattened, so the generator's output feeds the
discriminator and the regressor as it is. A condition is a row of the
[n_categories, cond_dim] table ``condition_table`` computes once per run:
the whitened embedding table in semantic mode and the identity in one-hot
mode; row i conditions category i. A batch of categories ``ids`` is
conditioned on ``cond[ids]`` and its knowledge-loss targets are
``embeddings[ids]``. ``train`` logs one ``METRIC_COLUMNS`` row per iteration.

A run's settings are its one ``ExperimentConfig``, with the cell's lambda_se.
One loader, ``load_gan``, restores a checkpoint's whole state and reads
the metric log it records: a resume continues its optimizers and its
log, and evaluation samples from its generator.

The GAN computes in float32 end to end: its parameters, spectral ``u``
vectors and Adam moments, every noise, condition and fake batch, the
real batches (the dataset's images as they are, ``synthdata``), and the
knowledge loss, which runs the frozen regressor as it is, float32 too
(``regressor``). Its initial values and noise are drawn in float64 and
rounded, so every random stream is consumed as before. A caller may
pass float64 condition and target tables; ``train`` and
``sample_images`` round them once, at entry.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ExperimentConfig
from .errors import ContractError, NumericalAbort
from .optim import AdamState, adam_step
from .regressor import semantic_embedding_loss
from .spectral import power_iteration_step, spectral_normalize

CONDITION_SEMANTIC = "semantic_embedding"
CONDITION_ONE_HOT = "one_hot"

_MASK64 = 0xFFFFFFFFFFFFFFFF

# Adam's moment decays for both networks, the SN-GAN regime
BETA1 = 0.0
BETA2 = 0.9

# exponent of the condition preconditioner's eigenvalue rescaling
WHITENING = 0.5

# the columns of a metric-log row, one row per training iteration
METRIC_COLUMNS = ("iteration", "L_D", "L_G", "L_se_seen", "L_se_unseen")

# for perfbench/checks.py, its only reader: load_gan(path, model, TrainConfig()), gan_lr 2e-4
TrainConfig = ExperimentConfig


def condition_preconditioner(embeddings: np.ndarray):
    """Fixed whitening of the [n, d] category-embedding table.

    Returns (matrix, shift) such that (v - shift) @ matrix rescales the
    principal axes of the embedding cloud by eigenvalue^(-WHITENING),
    normalized so the transformed vectors have roughly unit norm.
    WHITENING = 0.5 is full whitening (identity sample covariance); a
    smaller exponent would keep proportionally more of the raw
    anisotropy.

    For the function class this is a reparametrization of the networks'
    first condition-facing weights: any linear map of the transformed
    vector equals a linear map of v itself. It does change what training
    on the seen rows teaches about the unseen ones. Fitted over all n
    rows of a table whose centred rank is n - 1 (the default table's
    is), full whitening makes the rows a regular simplex, every pair the
    same distance apart, so an unseen code lies no nearer to one seen
    code than to another. Raw hashed bag-of-words embeddings share most
    of their mass across categories, which makes gradient descent on the
    raw coordinates oscillate along the common direction while barely
    separating categories; the rescaling equalizes those learning
    speeds.
    """
    n = embeddings.shape[0]
    shift = embeddings.mean(axis=0)
    centered = embeddings - shift
    cov = centered.T @ centered / max(n - 1, 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    keep = eigvals > 1e-10
    gains = np.where(keep, np.power(np.maximum(eigvals, 1e-10), -WHITENING), 0.0)
    matrix = (eigvecs * gains) @ eigvecs.T
    transformed = centered @ matrix
    scale = float(np.sqrt(np.mean(np.sum(transformed**2, axis=1))))
    if scale > 0.0:
        matrix = matrix / scale
    return matrix, shift


def condition_table(condition_mode: str, embeddings: np.ndarray) -> np.ndarray:
    """The [n, cond_dim] condition table for the [n, d] category table
    ``embeddings``: row i conditions category i. In one-hot mode it is
    the n x n identity; in semantic mode ``(embeddings - shift) @ matrix``,
    whitened by ``condition_preconditioner``."""
    if condition_mode == CONDITION_ONE_HOT:
        return np.eye(len(embeddings))
    matrix, shift = condition_preconditioner(embeddings)
    return (embeddings - shift) @ matrix


class GanModel:
    """Generator and projection discriminator with spectral state.

    The generator is one parameter set; conditioning on a seen or an
    unseen category invokes the same tensors. Every parameter and ``u``
    is float32, its float64 draw rounded. ``spectral_u`` holds the
    unit vector ``u`` of each of the ``spectral_weights``, the only
    spectral state carried over; ``sigma`` holds the estimates that
    ``refresh_spectral`` computes from it, empty until the first refresh.
    Both are keyed by the weight's ``Tensor.name`` ("D.w1").
    """

    def __init__(
        self,
        image_size: int,
        cond_dim: int,
        condition_mode: str,
        rng: np.random.Generator,
        z_dim: int,
        g_hidden: int,
        d_hidden: int,
        feat_dim: int,
    ):
        self.image_size = image_size
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
        for p in self.generator_params() + self.discriminator_params():
            p.data = p.data.astype(np.float32)

        self.spectral_u = {}
        for weight in self.spectral_weights():
            u = rng.standard_normal(weight.data.shape[0])
            self.spectral_u[weight.name] = (u / np.linalg.norm(u)).astype(np.float32)
        self.sigma = {}

    def generator_params(self):
        return [self.gw1, self.gb1, self.gw2, self.gb2, self.gw3, self.gb3]

    def discriminator_params(self):
        return [self.dw1, self.db1, self.dw2, self.db2, self.psi_w, self.psi_b, self.v_proj]

    def spectral_weights(self):
        """The four D weights the discriminator divides by their ``sigma``."""
        return [self.dw1, self.dw2, self.psi_w, self.v_proj]

    def refresh_spectral(self):
        """One power-iteration step per discriminator weight from its ``u``:
        sets the new ``u`` and the ``sigma`` the discriminator divides by."""
        for w in self.spectral_weights():
            u, self.sigma[w.name] = power_iteration_step(w.data, self.spectral_u[w.name])
            self.spectral_u[w.name] = u


def generator_forward(model: GanModel, z: Tensor, v: Tensor) -> Tensor:
    """tanh MLP over [noise ; condition], two constants joined in numpy
    before anything is recorded: [b, 3*S*S] image rows."""
    x = Tensor(np.concatenate([z.data, v.data], axis=1))
    h1 = ad.leaky_relu(ad.affine(x, model.gw1, model.gb1))
    h2 = ad.leaky_relu(ad.affine(h1, model.gw2, model.gb2))
    return ad.tanh(ad.affine(h2, model.gw3, model.gb3))


def discriminator_forward(model: GanModel, x: Tensor, v: Tensor) -> Tensor:
    """Projection score psi(phi(x)) + <v, V phi(x)> of [b, 3*S*S] image
    rows ``x``, weights normalized."""
    w1, w2, psi_w, v_proj = (spectral_normalize(w, model.sigma[w.name]) for w in model.spectral_weights())

    h = ad.leaky_relu(ad.affine(x, w1, model.db1))
    phi = ad.leaky_relu(ad.affine(h, w2, model.db2))
    psi = ad.affine(phi, psi_w, model.psi_b)
    # v @ V as an affine over a bias of -0.0, which gives every float back
    # bit for bit (+0.0 would turn a -0.0 product into +0.0); v and the
    # bias are constants, so only V's gradient v.T @ g is computed
    bias = Tensor(np.full(v_proj.data.shape[1], -0.0, v_proj.data.dtype))
    proj = ad.tsum(ad.mul(ad.affine(v, v_proj, bias), phi), axis=1)
    # psi's one column as a vector: a sum over one element gives it back,
    # -0.0 as +0.0, and psi is never -0.0 (psi_b starts at +0.0, and
    # Adam's p - step never turns +0.0 into -0.0)
    return ad.add(ad.tsum(psi, axis=1), proj)


# ---------------------------------------------------------------------------
# adversarial losses (L_se is ``regressor.semantic_embedding_loss``)


def hinge_d_loss(real_scores: Tensor, fake_scores: Tensor) -> Tensor:
    """mean(max(0, 1 - real)) + mean(max(0, 1 + fake)), over scores of one
    shape, as the D step's two row slices are: both terms add one
    constant of ones."""
    ones = Tensor(np.ones_like(real_scores.data))
    real_term = ad.tmean(ad.relu(ad.add(ad.scale(real_scores, -1.0), ones)))
    fake_term = ad.tmean(ad.relu(ad.add(fake_scores, ones)))
    return ad.add(real_term, fake_term)


def hinge_g_loss(fake_scores: Tensor) -> Tensor:
    """-mean(fake scores)."""
    return ad.scale(ad.tmean(fake_scores), -1.0)


# ---------------------------------------------------------------------------
# training


def _stream(seed: int, iteration: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([seed & _MASK64, iteration, stream])
    )


def _noise(rng: np.random.Generator, n: int, z_dim: int) -> np.ndarray:
    """[n, z_dim] standard normal noise: drawn in float64, rounded to float32."""
    return rng.standard_normal((n, z_dim)).astype(np.float32)


def _d_step(model, opt_d, dataset, pool, cond, config, iteration, snapshot):
    b = config.batch_size
    rng_real = _stream(config.gan_seed, iteration, 0)
    rows = pool[rng_real.integers(0, pool.size, size=b)]
    x_real = dataset.images[rows].reshape(b, -1)
    real_cats = dataset.category_ids[rows]

    # fakes share the real batch's conditions: pairing them keeps the
    # projection term's real-vs-fake contrast on the same categories
    v = cond[real_cats]
    z = _noise(_stream(config.gan_seed, iteration, 1), b, model.z_dim)
    with ad.no_grad():
        fakes = generator_forward(model, Tensor(z), Tensor(v))
    # one pass scores the real rows, then the fakes
    scores = discriminator_forward(
        model, Tensor(np.concatenate([x_real, fakes.data])), Tensor(np.concatenate([v, v]))
    )
    loss = hinge_d_loss(ad.row_slice(scores, 0, b), ad.row_slice(scores, b, 2 * b))
    value = loss.item()
    params = model.discriminator_params()
    grads = ad.backward(loss, params)
    # adam_step writes D's 7 parameters and 7 second moments in place, and
    # the abort snapshot holds them live: it keeps copies of the values they had
    written = {id(a) for a in [p.data for p in params] + opt_d.second_moment}
    snapshot.update({name: a.copy() for name, a in snapshot.items() if id(a) in written})
    adam_step(params, opt_d, grads, iteration + 1)
    return value


def _g_loss(model, seen_cats, unseen_cats, cond, embeddings, embedder, config, iteration):
    """L_G, and L_se over the seen and over the unseen fakes as floats
    (0.0 and 0.0 at lambda_se = 0, where it is the adversarial loss alone).

    At lambda_se > 0 one generator pass makes the seen fakes, then as
    many unseen ones, and one regressor pass predicts the embeddings of
    all of them; D scores the seen half. Each half's L_se is
    ``semantic_embedding_loss`` over its rows of that pass.
    """
    b = config.batch_size
    rng_z = _stream(config.gan_seed, iteration, 2)
    cats = seen_cats[rng_z.integers(0, seen_cats.size, size=b)]
    z = _noise(rng_z, b, model.z_dim)
    if config.lambda_se > 0.0:
        rng_u = _stream(config.gan_seed, iteration, 3)
        cats = np.concatenate([cats, unseen_cats[rng_u.integers(0, unseen_cats.size, size=b)]])
        z = np.concatenate([z, _noise(rng_u, b, model.z_dim)])
    v = cond[cats]
    fakes = generator_forward(model, Tensor(z), Tensor(v))
    if config.lambda_se == 0.0:
        return hinge_g_loss(discriminator_forward(model, fakes, Tensor(v))), 0.0, 0.0
    adv = hinge_g_loss(discriminator_forward(model, ad.row_slice(fakes, 0, b), Tensor(v[:b])))
    predictions, targets = embedder.forward(fakes), embeddings[cats]
    se = [
        semantic_embedding_loss(ad.row_slice(predictions, lo, lo + b), Tensor(targets[lo : lo + b]))
        for lo in (0, b)
    ]
    loss = ad.add(adv, ad.scale(ad.add(*se), config.lambda_se))
    return loss, se[0].item(), se[1].item()


def _finite_or_abort(losses):
    """Abort naming each non-finite loss by its ``METRIC_COLUMNS`` name."""
    bad = [name for name, value in zip(METRIC_COLUMNS[1:], losses) if not np.isfinite(value)]
    if bad:
        raise NumericalAbort(f"non-finite loss {', '.join(bad)}")


def new_optimizers(model: GanModel, config: ExperimentConfig):
    """Fresh Adam states at ``gan_lr`` over G's and over D's parameters: (opt_g, opt_d).
    Their moments take the parameters' dtype, float32."""
    return tuple(
        AdamState.for_params(params, learning_rate=config.gan_lr, beta1=BETA1, beta2=BETA2)
        for params in (model.generator_params(), model.discriminator_params())
    )


def train(
    model: GanModel,
    dataset,
    split,
    cond: np.ndarray,
    embeddings: np.ndarray,
    embedder,
    config: ExperimentConfig,
    opt_g: AdamState,
    opt_d: AdamState,
    log: list,
):
    """Category-dependent training: seen batches drive the adversarial and
    knowledge losses, unseen batches the knowledge loss alone.

    Real images are only ever drawn from seen categories. Each iteration
    runs D once over the real rows and the fakes, then G, D and, with the
    knowledge loss, the regressor once each over stacked rows (the module
    docstring says why that is exact up to rounding). With lambda_se = 0
    the unseen machinery is skipped entirely and the run is an SN-GAN
    run; the split may then have no unseen categories, which is how the
    full-data baseline trains on every category. ``split`` and
    ``embedder`` are ``cli.cmd_train``'s: the split's sides are disjoint
    ids of the dataset's categories, with unseen ones and an embedder
    whenever lambda_se > 0. Row i of
    ``cond``, the ``condition_table``, conditions category i, and row i of
    ``embeddings``, the [n_categories, d] category table, is its
    knowledge-loss target. Both tables are rounded to float32 once, here;
    ``embedder``, a float32 ``regressor.RegressorModel``, runs as it is.

    Reads ``lambda_se``, ``batch_size``, ``gan_seed`` and ``gan_iterations``
    from ``config``. The run's iteration is the length of ``log``, the
    ``METRIC_COLUMNS`` rows of the iterations trained before (a resume's,
    or none): ``train`` updates ``model`` in place over iterations
    ``len(log)`` .. ``gan_iterations - 1``, stepping ``opt_g`` and
    ``opt_d`` (a resume's, or ``new_optimizers``), and returns the log
    with one row appended per iteration. A non-finite
    loss or gradient raises NumericalAbort before G is updated, naming what
    it was and "at iteration N"; it carries the state and the log as they
    stood at the start of the failing iteration.
    """
    seen_cats = np.asarray(sorted(split.seen_ids), dtype=np.int64)
    pool = dataset.rows_of(seen_cats)
    unseen_cats = np.asarray(sorted(split.unseen_ids), dtype=np.int64)

    cond = cond.astype(np.float32)
    embeddings = embeddings.astype(np.float32)

    for iteration in range(len(log), config.gan_iterations):
        # The state at the start of the iteration, kept for an abort. It
        # holds the live arrays, which is safe while nothing writes them:
        # power_iteration_step replaces its vectors, and adam_step writes
        # in place only once every gradient has passed its checks. The D
        # step copies D's parameters and second moments (14 arrays) out of
        # it just before writing them, after its backward pass has freed
        # the tape. G's need no copy: the D step, the loss check and G's
        # gradient checks all run before G's update, the iteration's last
        # write.
        snapshot = gan_state(model, opt_g, opt_d)
        model.refresh_spectral()

        try:
            # each iteration steps D and G once, so Adam's step number is
            # iteration + 1 for both, and a resume needs only the log
            l_d = _d_step(model, opt_d, dataset, pool, cond, config, iteration, snapshot)
            loss_g, se_seen, se_unseen = _g_loss(
                model, seen_cats, unseen_cats, cond, embeddings, embedder, config, iteration
            )
            l_g = loss_g.item()
            _finite_or_abort((l_d, l_g, se_seen, se_unseen))
            params = model.generator_params()
            adam_step(params, opt_g, ad.backward(loss_g, params), iteration + 1)
        except NumericalAbort as abort:
            ad.get_tape().clear()
            message = f"{abort} at iteration {iteration}"
            raise NumericalAbort(message, last_good=snapshot, log=log) from None

        log.append((iteration, l_d, l_g, se_seen, se_unseen))
    return log


# ---------------------------------------------------------------------------
# sampling and persistence


def sample_images(model: GanModel, category_id: int, n: int, cond: np.ndarray, seed: int):
    """n generated float32 [3, S, S] images for one category, conditioned
    on row ``category_id`` of the condition table ``cond``; deterministic
    in (seed, id)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed & _MASK64, int(category_id)]))
    z = _noise(rng, n, model.z_dim)
    v = np.tile(cond[category_id].astype(np.float32), (n, 1))
    with ad.no_grad():
        images = generator_forward(model, Tensor(z), Tensor(v))
    return images.data.reshape(n, 3, model.image_size, model.image_size)


def gan_state(model: GanModel, opt_g: AdamState, opt_d: AdamState) -> dict:
    """What training learned, as the named state a resume needs, holding the
    live arrays (no copies): the parameters, each spectral ``u`` and both
    optimizers' second moments. At ``BETA1`` = 0 Adam keeps no first
    moment. See ``checkpoint`` for what is derived instead."""
    state = {p.name: p.data for p in model.generator_params() + model.discriminator_params()}
    for name, u in model.spectral_u.items():
        state[f"spectral.{name}.u"] = u
    for tag, opt, params in (
        ("adam_g", opt_g, model.generator_params()),
        ("adam_d", opt_d, model.discriminator_params()),
    ):
        for p, v in zip(params, opt.second_moment):
            state[f"{tag}.v.{p.name}"] = v
    return state


def save_gan(path, state: dict, condition_mode: str, run: dict, log) -> None:
    """Write a named state, a ``gan_state`` or an abort's ``last_good``,
    with ``log``, the ``METRIC_COLUMNS`` rows of the iterations before it:
    the state is the one at the start of iteration ``len(log)``, so a
    resume reads the one file; ``run`` adds metadata a resume compares.
    The log is JSON in the metadata, not a tensor: its length, which no
    load template knows in advance, is the run's iteration. JSON writes
    each float as its ``repr``, so every loss comes back with the same bits."""
    metadata = {"kind": "gan", "condition_mode": condition_mode, "log": log}
    save_checkpoint(path, state, {**metadata, **run})


def load_gan(path, model: GanModel, config: ExperimentConfig, run=None):
    """Restore parameters, spectral ``u`` vectors and both optimizers'
    second moments into ``model``, and read the metric log: the one
    loader, for a resume, which continues the optimizers and the log, and
    for evaluation, which samples from the generator and discards the rest.

    The file is verified whole: digest, kind, condition mode, ``run`` and
    every name, shape and dtype. The model must be freshly built with the
    same architecture config. Its float32 arrays are the template, so a
    file holding a float64 GAN is refused naming its first tensor.
    Nothing of the conditioning is stored: the caller recomputes the
    condition table from the dataset's (``cli._build_model``). Every
    field of ``run`` must match the checkpoint's metadata, after its kind
    and condition mode. A non-finite value is refused naming its tensor
    and row. The metadata's ``log`` must be a list whose row i is an int
    i and four finite floats, as ``train`` logs them; otherwise
    ContractError names the file, ``log`` and what it found. Its length
    is the iteration, from which ``train`` continues both optimizers'
    Adam steps; both learn at ``config.gan_lr``. Returns (log, opt_g,
    opt_d, len(log)), the log a list of row tuples.
    """
    opt_g, opt_d = new_optimizers(model, config)
    expect = {"kind": "gan", "condition_mode": model.condition_mode, **(run or {})}
    live = gan_state(model, opt_g, opt_d)
    state, metadata = load_checkpoint(path, template=live, expect=expect)
    log = metadata.get("log")
    if type(log) is not list:
        raise ContractError(f"{path}: checkpoint has log {log!r}, expected a list")
    for i, row in enumerate(log):
        ok = type(row) is list and tuple(map(type, row)) == (int, float, float, float, float) and row[0] == i
        if not (ok and all(map(math.isfinite, row[1:]))):
            expected = f"expected {i} and four finite floats"
            raise ContractError(f"{path}: checkpoint has log row {i} {row!r}, {expected}")
    # the arrays are the fresh model's and optimizers' own
    for name, arr in live.items():
        arr[...] = state[name]
    return [tuple(row) for row in log], opt_g, opt_d, len(log)
