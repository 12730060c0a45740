"""Experiment configuration: flat key = value text, round-trip exact.

Every seed is explicit; nothing draws from hidden entropy. Defaults are
desk scale: 12 categories (9 seen / 3 unseen), 80 images each at 16x16,
3000 GAN iterations.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

from .checkpoint import write_atomic
from .errors import ConfigError
from .hashing import fnv1a_64_hex


@dataclass
class ExperimentConfig:
    n_categories: int = 12
    images_per_category: int = 80
    image_size: int = 16
    n_unseen: int = 3
    descriptions_per_category: int = 10
    embed_dim: int = 64
    condition_mode: str = "semantic_embedding"
    lambda_se: float = 0.1
    embedder_steps: int = 2000
    embedder_batch: int = 32
    embedder_lr: float = 1e-3
    embedder_plateau: int = 300
    gan_iterations: int = 3000
    batch_size: int = 16
    z_dim: int = 16
    d_steps_per_g_step: int = 1
    gan_lr: float = 2e-4
    adam_beta1: float = 0.0
    adam_beta2: float = 0.9
    g_hidden: int = 128
    d_hidden: int = 128
    feat_dim: int = 64
    n_gen: int = 256
    grid_rows: int = 2
    data_seed: int = 101
    split_seed: int = 102
    embedder_seed: int = 103
    gan_seed: int = 104
    eval_seed: int = 105
    out_dir: str = "runs"


# the five run seeds, in the order rebase_seeds offsets them
SEED_FIELDS = ("data_seed", "split_seed", "embedder_seed", "gan_seed", "eval_seed")

# smallest valid value of every integer field; n_gen needs two draws for
# a covariance, and embedder_plateau = 0 turns early stopping off
MIN_VALUES = {
    "n_categories": 2,
    "images_per_category": 1,
    "image_size": 8,
    "descriptions_per_category": 1,
    "embed_dim": 1,
    "embedder_steps": 1,
    "embedder_batch": 1,
    "embedder_plateau": 0,
    "gan_iterations": 1,
    "batch_size": 1,
    "z_dim": 1,
    "d_steps_per_g_step": 1,
    "g_hidden": 1,
    "d_hidden": 1,
    "feat_dim": 1,
    "n_gen": 2,
    "grid_rows": 1,
    **{name: 0 for name in SEED_FIELDS},
}


def validate_config(config: ExperimentConfig) -> ExperimentConfig:
    for name, minimum in MIN_VALUES.items():
        value = getattr(config, name)
        if value < minimum:
            raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    if not (1 <= config.n_unseen < config.n_categories):
        raise ConfigError(
            f"n_unseen must be in [1, {config.n_categories - 1}], got {config.n_unseen}"
        )
    for name in ("gan_lr", "embedder_lr"):
        value = getattr(config, name)
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"{name} must be finite and > 0, got {value}")
    for name in ("adam_beta1", "adam_beta2"):
        value = getattr(config, name)
        if not 0 <= value < 1:
            raise ConfigError(f"{name} must lie in [0, 1), got {value}")
    if not (math.isfinite(config.lambda_se) and config.lambda_se >= 0):
        raise ConfigError(f"lambda_se must be finite and >= 0, got {config.lambda_se}")
    if config.condition_mode not in ("semantic_embedding", "one_hot"):
        raise ConfigError(f"unknown condition_mode {config.condition_mode!r}")
    return config


def serialize_config(config: ExperimentConfig) -> str:
    lines = ["# experiment configuration (key = value)"]
    for f in fields(config):
        value = getattr(config, f.name)
        text = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> ExperimentConfig:
    known = {f.name: f.type for f in fields(ExperimentConfig)}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno} is not 'key = value': {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in known:
            raise ConfigError(f"unknown config key {key!r} on line {lineno}")
        kind = known[key]
        try:
            if kind in ("int", int):
                values[key] = int(value)
            elif kind in ("float", float):
                values[key] = float(value)
            else:
                values[key] = value
        except ValueError:
            raise ConfigError(f"bad value for {key!r} on line {lineno}: {value!r}") from None
    return validate_config(ExperimentConfig(**values))


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def save_config(path, config: ExperimentConfig) -> None:
    write_atomic(path, serialize_config(config))


def config_hash(config: ExperimentConfig) -> str:
    return fnv1a_64_hex(serialize_config(config).encode("utf-8"))


def rebase_seeds(config: ExperimentConfig, master_seed: int) -> ExperimentConfig:
    """Derive the five run seeds from one master seed: master+0 .. master+4."""
    for offset, name in enumerate(SEED_FIELDS):
        setattr(config, name, master_seed + offset)
    return config
