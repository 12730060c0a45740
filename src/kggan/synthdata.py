"""Procedural flower dataset: colored shapes on a dark background.

Each category is a recipe (color, shape, stripe frequency) plus templated
text descriptions. Rendering is a pure function of (spec, instance seed),
so the whole dataset regenerates bit-identically from its config. The
palette uses exactly three color words, each with a strictly dominant RGB
channel, so color metrics are unambiguous and every color word stays
represented on the seen side of any split that leaves fewer unseen
categories than there are categories per color.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import write_atomic
from .errors import ConfigError, ContractError

BACKGROUND = 0.05  # in [0, 1] space; images are stored in [-1, 1]
TEXTURE_AMPLITUDE = 0.15
HUE_JITTER = 0.05
BASE_RADIUS = 0.32

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
TEXTURE_FREQS = (0.0, 2.0, 4.0)

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
    """Procedural recipe for one flower category."""

    id: int
    base_color: tuple
    shape: str
    texture_freq: float
    name: str = ""
    descriptions: list = field(default_factory=list)


@dataclass
class Sample:
    image: np.ndarray  # [3, H, W] float64 in [-1, 1]
    category_id: int


@dataclass
class SplitPlan:
    seen_ids: set
    unseen_ids: set
    seed: int


@dataclass
class Dataset:
    image_size: int
    images: np.ndarray  # [N, 3, S, S] float64 in [-1, 1]
    category_ids: np.ndarray  # [N] int64
    specs: list

    def __len__(self):
        return self.images.shape[0]

    def indices_of(self, category_id: int) -> np.ndarray:
        return np.nonzero(self.category_ids == category_id)[0]


def color_word(rgb) -> str:
    """Nearest palette word for an RGB triple."""
    rgb = np.asarray(rgb, dtype=np.float64)
    best, best_d = None, np.inf
    for word, ref in PALETTE.items():
        d = float(np.sum((rgb - np.asarray(ref)) ** 2))
        if d < best_d:
            best, best_d = word, d
    return best


def texture_word(freq: float) -> str:
    if freq <= 0.0:
        return "smooth"
    if freq <= 3.0:
        return "striped"
    return "banded"


def describe_category(spec: CategorySpec, n: int) -> list:
    """n templated sentences for a category, phrasing rotated by index.

    Every sentence contains the category's color word and species name.
    """
    if n < 1:
        raise ContractError("need at least one description")
    cw = color_word(spec.base_color)
    sw = _SHAPE_WORDS[spec.shape]
    tw = texture_word(spec.texture_freq)
    name = spec.name or NAME_WORDS[spec.id % len(NAME_WORDS)]
    return [
        _TEMPLATES[i % len(_TEMPLATES)].format(name=name, color=cw, shape=sw, texture=tw)
        for i in range(n)
    ]


def make_category_specs(n_categories: int, descriptions_per_category: int = 10) -> list:
    """The default category grid: colors x shapes, textures cycling by id."""
    colors = list(PALETTE.values())
    max_unique = len(colors) * len(SHAPES) * len(TEXTURE_FREQS)
    if not (1 <= n_categories <= max_unique):
        raise ConfigError(f"n_categories must be in [1, {max_unique}], got {n_categories}")
    specs = []
    for cid in range(n_categories):
        color = colors[cid % len(colors)]
        shape = SHAPES[(cid // len(colors)) % len(SHAPES)]
        freq = TEXTURE_FREQS[cid % len(TEXTURE_FREQS)]
        spec = CategorySpec(
            id=cid,
            base_color=color,
            shape=shape,
            texture_freq=freq,
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


def render_sample(spec: CategorySpec, instance_seed: int, image_size: int = 16) -> Sample:
    """Deterministically draw one instance of a category.

    Jitter order is part of the format: center x/y, scale, per-channel
    hue, rotation, aspect, all from default_rng(SeedSequence([id, seed]))
    with half-widths from the shape's jitter profile.
    """
    if image_size < 8:
        raise ConfigError(f"image size must be >= 8, got {image_size}")
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
    color = np.clip(np.asarray(spec.base_color) + hue_jit, 0.0, 1.0)

    mask = _shape_mask(spec.shape, s, cx, cy, r, rot=rot, aspect=aspect)
    xx = np.arange(s, dtype=np.float64)[None, :].repeat(s, axis=0)
    texture = 1.0 + TEXTURE_AMPLITUDE * np.sin(2.0 * np.pi * spec.texture_freq * xx / s)

    img01 = np.full((3, s, s), BACKGROUND)
    for c in range(3):
        channel = img01[c]
        channel[mask] = color[c] * texture[mask]
    img01 = np.clip(img01, 0.0, 1.0)
    return Sample(image=img01 * 2.0 - 1.0, category_id=spec.id)


def foreground_mask(image: np.ndarray, threshold: float = 0.3) -> np.ndarray:
    """Pixels bright enough in any channel to count as flower, not background.

    ``image`` is [..., 3, S, S]; the mask is [..., S, S]. An image with no
    such pixel counts as all foreground.
    """
    # (x + 1) / 2 rounds monotonically, so the brightest raw channel decides
    mask = (image.max(axis=-3) + 1.0) / 2.0 > threshold
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
    """Deterministic seen/unseen split: shuffle by seed, last n_unseen unseen."""
    ids = list(category_ids)
    if not (1 <= n_unseen < len(ids)):
        raise ConfigError(f"n_unseen must be in [1, {len(ids) - 1}], got {n_unseen}")
    rng = np.random.default_rng(seed)
    order = [ids[i] for i in rng.permutation(len(ids))]
    return SplitPlan(seen_ids=set(order[:-n_unseen]), unseen_ids=set(order[-n_unseen:]), seed=seed)


def build_dataset(specs, images_per_category: int, image_size: int, seed: int) -> Dataset:
    images = []
    ids = []
    for spec in specs:
        for k in range(images_per_category):
            # per-sample seed folds dataset seed and sample index together
            sample = render_sample(spec, instance_seed=seed * 1_000_003 + k, image_size=image_size)
            images.append(sample.image)
            ids.append(spec.id)
    return Dataset(
        image_size=image_size,
        images=np.stack(images),
        category_ids=np.asarray(ids, dtype=np.int64),
        specs=list(specs),
    )


# ---------------------------------------------------------------------------
# persistence: binary blob + manifest + descriptions

BLOB_MAGIC = b"KGDS"
BLOB_VERSION = 1


def save_blob(path, dataset: Dataset) -> None:
    """Images as little-endian f32 behind a 16-byte header."""
    header = BLOB_MAGIC + struct.pack("<III", BLOB_VERSION, len(dataset), dataset.image_size)
    write_atomic(path, header + dataset.images.astype("<f4").tobytes())


def load_blob(path):
    """Returns (images [n, 3, side, side] float64, side); every pixel finite."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16 or header[:4] != BLOB_MAGIC:
            raise ContractError(f"{path} is not a dataset blob")
        version, n, side = struct.unpack("<III", header[4:])
        if version != BLOB_VERSION:
            raise ContractError(f"unsupported blob version {version}")
        raw = np.frombuffer(fh.read(), dtype="<f4")
    expected = n * 3 * side * side
    if raw.size != expected:
        raise ContractError(f"blob holds {raw.size} floats, expected {expected}")
    images = raw.astype(np.float64).reshape(n, 3, side, side)
    bad = np.flatnonzero(~np.isfinite(images).all(axis=(1, 2, 3)))
    if bad.size:
        raise ContractError(f"{path}: sample {bad[0]} has a non-finite pixel")
    return images, side


def save_manifest(path, dataset: Dataset, header_lines=()) -> None:
    lines = [f"# {line}" for line in header_lines]
    lines.append("offset,category_id")
    lines.extend(f"{i},{int(cid)}" for i, cid in enumerate(dataset.category_ids))
    write_atomic(path, "\n".join(lines) + "\n")


def load_manifest(path):
    """Category ids in offset order; the offsets must number the rows 0..n-1 once each."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("offset"):
                continue
            try:
                offset, cid = (int(part) for part in line.split(","))
            except ValueError:
                raise ContractError(
                    f"{path}: line {lineno} is not 'offset,category_id': {line!r}"
                ) from None
            rows.append((lineno, offset, cid))
    ids = np.empty(len(rows), dtype=np.int64)
    seen = set()
    for lineno, offset, cid in rows:
        if offset in seen:
            raise ContractError(f"{path}: line {lineno} repeats offset {offset}")
        if not 0 <= offset < len(rows):
            raise ContractError(
                f"{path}: line {lineno} has offset {offset}, outside 0..{len(rows) - 1}"
            )
        seen.add(offset)
        ids[offset] = cid
    return ids


def save_descriptions(path, specs, header_lines=()) -> None:
    lines = [f"# {line}" for line in header_lines]
    for spec in specs:
        lines.append(f"#category {spec.id}")
        lines.extend(spec.descriptions)
    write_atomic(path, "\n".join(lines) + "\n")
