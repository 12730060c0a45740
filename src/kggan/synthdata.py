"""Procedural flower dataset: colored shapes on a dark background.

Each category is a recipe of three words (color, shape, texture) plus
templated text descriptions that use them. ``PALETTE`` maps a color word
to its RGB and ``TEXTURES`` a texture word to its stripe frequency; they
are read only where pixels are drawn or color is scored. Rendering is a
pure function of (spec, instance seed), so the whole dataset regenerates
bit-identically from its config. The palette uses exactly three color
words, each with a strictly dominant RGB channel, so color metrics are
unambiguous and every color word stays represented on the seen side of
any split that leaves fewer unseen categories than there are categories
per color.

A dataset's images are float32, built or loaded: ``build_dataset``
rounds each float64 ``render_sample`` once, as it stores it. The GAN
and the embedder, both float32, read them as they are (``regressor``).
The dataset file is a checkpoint of kind "dataset": those images and
the float64 [n_categories, d] category table, with the DATASET_FIELDS
they depend on, verified on load as every checkpoint is, finiteness
included. Category ids are not stored; samples are category-major
(``sample_category_ids``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint, write_atomic
from .config import ExperimentConfig, config_fields
from .errors import ConfigError

BACKGROUND = 0.05  # in [0, 1] space; images are stored in [-1, 1]
TEXTURE_AMPLITUDE = 0.15
HUE_JITTER = 0.05
BASE_RADIUS = 0.32
FOREGROUND_THRESHOLD = 0.3  # [0, 1] brightness a flower pixel exceeds in some channel

# the config fields a dataset file's images and category table depend on
DATASET_FIELDS = (
    "n_categories", "images_per_category", "image_size", "descriptions_per_category",
    "embed_dim", "data_seed",
)

# Intra-category variation differs by shape family, the way real flower
# categories vary in their own characteristic ways: disks breathe in
# scale, rings wander, crosses tilt and squash, petal heads rotate.
# (center, scale) are uniform jitter half-widths; rot is the rotation
# half-width in radians; aspect the log-squash half-width.
_SHAPE_JITTER = {
    "disk": {"center": 0.10, "scale": 0.35, "rot": 0.0, "aspect": 0.0},
    "ring": {"center": 0.22, "scale": 0.10, "rot": 0.0, "aspect": 0.0},
    "cross": {"center": 0.12, "scale": 0.15, "rot": 0.45, "aspect": 0.30},
    "petals": {"center": 0.12, "scale": 0.15, "rot": 0.80, "aspect": 0.0},
}

PALETTE = {
    "red": (0.85, 0.10, 0.10),
    "green": (0.10, 0.80, 0.15),
    "blue": (0.15, 0.15, 0.85),
}
SHAPES = ("disk", "ring", "cross", "petals")
TEXTURES = {"smooth": 0.0, "striped": 2.0, "banded": 4.0}  # stripe cycles per image width

_SHAPE_WORDS = {"disk": "round", "ring": "hollow", "cross": "angular", "petals": "star"}

# Per-category species names, like the flower names real annotations carry.
# Chosen so no two names (and no name vs palette word) share a feature
# bucket at the default embedding width.
NAME_WORDS = (
    "tansy", "sorrel", "yarrow", "clover", "thistle", "mallow",
    "vetch", "campion", "burdock", "teasel", "knapweed", "speedwell",
    "cowslip", "eyebright", "figwort", "hawkbit", "hellebore", "milfoil",
    "nettle", "orpine", "plantain", "stonecrop", "valerian", "woodruff",
    "woundwort", "agrimony", "bugloss", "hedgerow", "bistort", "cleavers",
    "toadflax", "pimpernel", "dogbane", "harebell", "lupine", "oxlip",
)

# Content-dense phrasing: the species name appears once and the color
# word twice per sentence, so per-category identity and color dominate
# the averaged feature the way they dominate real flower annotations.
# No template word may share a hash bucket with a palette word at the
# default embedding width, or the bucket-level color contrast smears.
_TEMPLATES = (
    "{name}, a {color} flower with {color} petals and a {shape} head, {texture} finish",
    "{color} {name} floret, {color} throughout, {shape} crown, {texture} tone",
    "this {color} {name} blossom has {color} petals, a {shape} form, {texture} marks",
    "one {color} {name} flower, {color} in tone, {shape} head, {texture} style",
    "small {color} {name} with {color} petals, {shape} crown, {texture} look",
    "bright {color} {name} floret, {color} petals, {shape} outline, {texture} finish",
    "photo of a {color} {name}, {color} petals, {shape} head, {texture} marks",
    "a {color} {name} blossom, {color} shades, {shape} form, {texture} style",
    "view of a {color} {name}, {color} tone, {shape} crown, {texture} look",
    "a {color} garden {name}, {color} petals, {shape} head, {texture} finish",
)


@dataclass
class CategorySpec:
    """Procedural recipe for one flower category: a ``PALETTE`` color word,
    a ``SHAPES`` entry and a ``TEXTURES`` word, with its species name."""

    id: int
    color: str
    shape: str
    texture: str
    name: str
    descriptions: list = field(default_factory=list)


@dataclass
class SplitPlan:
    seen_ids: set
    unseen_ids: set


@dataclass
class Dataset:
    """Row i is an image of category ``category_ids[i]``; built or loaded, category-major."""

    images: np.ndarray  # [N, 3, S, S] float32 in [-1, 1]
    category_ids: np.ndarray  # [N] int64
    specs: list

    def __len__(self):
        return self.images.shape[0]

    def rows_of(self, category_ids) -> np.ndarray:
        """The rows of the categories in ``category_ids``, any iterable of ids, in row order."""
        # np.isin takes a set as one object, not as its elements
        return np.nonzero(np.isin(self.category_ids, list(category_ids)))[0]


def describe_category(spec: CategorySpec, n: int) -> list:
    """n templated sentences for a category, phrasing rotated by index.

    Every sentence contains the category's color word and species name.
    """
    shape = _SHAPE_WORDS[spec.shape]
    words = {"name": spec.name, "color": spec.color, "shape": shape, "texture": spec.texture}
    return [_TEMPLATES[i % len(_TEMPLATES)].format(**words) for i in range(n)]


def make_category_specs(n_categories: int, descriptions_per_category: int = 10) -> list:
    """The default category grid: colour cycles by id, shape steps every
    ``len(PALETTE)`` ids, and texture cycles by id shifted one step per
    block of colours x shapes ids, so ids 0..35 are 36 distinct recipes.
    ``validate_config`` bounds ``n_categories`` by ``config.MAX_CATEGORIES``."""
    colors, textures = list(PALETTE), list(TEXTURES)
    block = len(colors) * len(SHAPES)
    specs = []
    for cid in range(n_categories):
        spec = CategorySpec(
            id=cid,
            color=colors[cid % len(colors)],
            shape=SHAPES[(cid // len(colors)) % len(SHAPES)],
            texture=textures[(cid + cid // block) % len(textures)],
            name=NAME_WORDS[cid % len(NAME_WORDS)],
        )
        spec.descriptions = describe_category(spec, descriptions_per_category)
        specs.append(spec)
    return specs


def _shape_mask(
    shape: str, size: int, cx: float, cy: float, r: float, rot: float = 0.0, aspect: float = 1.0
) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    raw_dx = xx - cx
    raw_dy = yy - cy
    c, s = np.cos(rot), np.sin(rot)
    dx = (c * raw_dx + s * raw_dy) / aspect
    dy = (-s * raw_dx + c * raw_dy) * aspect
    dist = np.sqrt(dx * dx + dy * dy)
    if shape == "disk":
        return dist <= r
    if shape == "ring":
        return (dist <= r) & (dist >= 0.55 * r)
    if shape == "cross":
        arm = 0.30 * r
        return ((np.abs(dx) <= arm) | (np.abs(dy) <= arm)) & (np.maximum(np.abs(dx), np.abs(dy)) <= r)
    if shape == "petals":
        theta = np.arctan2(dy, dx)
        return dist <= r * (0.45 + 0.55 * np.abs(np.cos(2.0 * theta)))
    raise ConfigError(f"unknown shape {shape!r}")


def render_sample(spec: CategorySpec, instance_seed: int, image_size: int = 16) -> np.ndarray:
    """Deterministically draw one instance of a category: [3, S, S] in [-1, 1].

    Jitter order is part of the format: center x/y, scale, per-channel
    hue, rotation, aspect, all from default_rng(SeedSequence([id, seed]))
    with half-widths from the shape's jitter profile.
    """
    profile = _SHAPE_JITTER[spec.shape]
    rng = np.random.default_rng(np.random.SeedSequence([int(spec.id), int(instance_seed)]))
    center_jit = rng.uniform(-profile["center"], profile["center"], size=2)
    scale_jit = rng.uniform(-profile["scale"], profile["scale"])
    hue_jit = rng.uniform(-HUE_JITTER, HUE_JITTER, size=3)
    rot = rng.uniform(-profile["rot"], profile["rot"])
    aspect = float(np.exp(rng.uniform(-profile["aspect"], profile["aspect"])))

    s = image_size
    cx = (0.5 + center_jit[0]) * (s - 1)
    cy = (0.5 + center_jit[1]) * (s - 1)
    r = BASE_RADIUS * s * (1.0 + scale_jit)
    color = np.clip(np.asarray(PALETTE[spec.color]) + hue_jit, 0.0, 1.0)

    mask = _shape_mask(spec.shape, s, cx, cy, r, rot=rot, aspect=aspect)
    xx = np.arange(s, dtype=np.float64)[None, :].repeat(s, axis=0)
    texture = 1.0 + TEXTURE_AMPLITUDE * np.sin(2.0 * np.pi * TEXTURES[spec.texture] * xx / s)

    img01 = np.full((3, s, s), BACKGROUND)
    for c in range(3):
        channel = img01[c]
        channel[mask] = color[c] * texture[mask]
    img01 = np.clip(img01, 0.0, 1.0)
    return img01 * 2.0 - 1.0


def foreground_mask(image: np.ndarray) -> np.ndarray:
    """Pixels bright enough in any channel to count as flower, not background.

    ``image`` is [..., 3, S, S]; the mask is [..., S, S]. An image with no
    such pixel counts as all foreground.
    """
    # (x + 1) / 2 rounds monotonically, so the brightest raw channel decides
    mask = (image.max(axis=-3) + 1.0) / 2.0 > FOREGROUND_THRESHOLD
    mask |= ~mask.any(axis=(-2, -1), keepdims=True)
    return mask


def mean_foreground_color(image: np.ndarray) -> np.ndarray:
    """Mean [0, 1] color over the foreground of [-1, 1] images.

    ``image`` is [..., 3, S, S] (one image or a batch); the result is
    [..., 3]. A batch is scored in one pass, its foreground sums taken as
    one batched product with the mask; each mean agrees with averaging
    that image's selected pixels alone to within summation rounding.
    """
    lead = image.shape[:-3]
    weights = foreground_mask(image).reshape(*lead, -1, 1).astype(np.float64)
    sums = (image.reshape(*lead, 3, -1) @ weights)[..., 0]
    return (sums / weights.sum(axis=(-2, -1))[..., None] + 1.0) / 2.0


def make_split(category_ids, n_unseen: int, seed: int) -> SplitPlan:
    """Deterministic seen/unseen split: shuffle by seed, last n_unseen unseen.
    ``validate_config`` keeps n_unseen in [1, len(ids) - 1], so neither side is empty."""
    ids = list(category_ids)
    rng = np.random.default_rng(seed)
    order = [ids[i] for i in rng.permutation(len(ids))]
    return SplitPlan(seen_ids=set(order[:-n_unseen]), unseen_ids=set(order[-n_unseen:]))


def sample_category_ids(specs, images_per_category: int) -> np.ndarray:
    """Each sample's category id, category-major: the order ``build_dataset`` renders in."""
    return np.repeat(np.asarray([spec.id for spec in specs], dtype=np.int64), images_per_category)


def build_dataset(specs, images_per_category: int, image_size: int, seed: int) -> Dataset:
    images = np.empty((len(specs) * images_per_category, 3, image_size, image_size), np.float32)
    for i, spec in enumerate(specs):
        for k in range(images_per_category):
            # per-sample seed folds dataset seed and sample index together
            sample = render_sample(spec, instance_seed=seed * 1_000_003 + k, image_size=image_size)
            images[i * images_per_category + k] = sample
    return Dataset(images, sample_category_ids(specs, images_per_category), list(specs))


# ---------------------------------------------------------------------------
# persistence: one dataset file, plus the descriptions as text


def save_dataset(path, dataset: Dataset, embeddings: np.ndarray, config: ExperimentConfig) -> None:
    """Write ``dataset.images`` and the category table, recording the
    DATASET_FIELDS of ``config``."""
    state = {"images": dataset.images, "embeddings": embeddings}
    save_checkpoint(path, state, {"kind": "dataset", **config_fields(config, DATASET_FIELDS)})


def load_dataset(path, config: ExperimentConfig):
    """(Dataset, embeddings) from a file with ``config``'s DATASET_FIELDS,
    the shapes they imply, float32 images and a float64 table, every value
    finite; else ContractError names the first field or tensor that
    differs, and a non-finite value's row: its sample or category."""
    if not os.path.exists(path):
        raise OSError(f"dataset missing: {path} (run generate-data first)")
    specs = make_category_specs(config.n_categories, config.descriptions_per_category)
    side = config.image_size
    n = len(specs) * config.images_per_category
    template = {  # shapes and dtypes only: broadcast views allocate nothing
        "images": np.broadcast_to(np.float32(0.0), (n, 3, side, side)),
        "embeddings": np.broadcast_to(0.0, (len(specs), config.embed_dim)),
    }
    expect = {"kind": "dataset", **config_fields(config, DATASET_FIELDS)}
    state, _ = load_checkpoint(path, template, expect)
    ids = sample_category_ids(specs, config.images_per_category)
    return Dataset(state["images"], ids, specs), state["embeddings"]


def save_descriptions(path, specs, header_lines=()) -> None:
    lines = [f"# {line}" for line in header_lines]
    for spec in specs:
        lines.append(f"#category {spec.id}")
        lines.extend(spec.descriptions)
    write_atomic(path, "\n".join(lines) + "\n")
