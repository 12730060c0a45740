"""Output checks on what the CLI stages write.

Each check raises ``CheckFailed`` with a reason; the runner counts every
check it makes as one attempted operation and every raise as one failure.
"""

from __future__ import annotations

import glob
import math
import os


class CheckFailed(Exception):
    """An output of the program is missing or wrong."""


def _data_lines(path):
    if not os.path.exists(path):
        raise CheckFailed(f"{path} missing")
    with open(path, "r", encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh if line.strip() and not line.startswith("#")]


def _finite(text, what):
    try:
        value = float(text)
    except ValueError:
        raise CheckFailed(f"{what}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise CheckFailed(f"{what}: {value} is not finite")
    return value


def metrics_csv(path, iterations):
    """Exactly ``iterations`` rows, numbered in order, of finite losses."""
    lines = _data_lines(path)
    if not lines or lines[0] != "iteration,L_D,L_G,L_se_seen,L_se_unseen":
        raise CheckFailed(f"{path}: unexpected header")
    rows = lines[1:]
    if len(rows) != iterations:
        raise CheckFailed(f"{path}: {len(rows)} rows, expected {iterations}")
    for expected, row in enumerate(rows):
        fields = row.split(",")
        if len(fields) != 5 or fields[0] != str(expected):
            raise CheckFailed(f"{path}: bad row {row!r}")
        for text in fields[1:]:
            _finite(text, f"{path} row {expected}")


def checkpoint_iteration(path, config, condition_mode, expected):
    """The checkpoint loads through ``gan.load_gan`` at ``expected`` iterations."""
    import numpy as np
    from kggan import gan

    cond_dim = config.embed_dim if condition_mode == gan.CONDITION_SEMANTIC else config.n_categories
    model = gan.GanModel(
        image_size=config.image_size,
        cond_dim=cond_dim,
        condition_mode=condition_mode,
        rng=np.random.default_rng(0),
        z_dim=config.z_dim,
        g_hidden=config.g_hidden,
        d_hidden=config.d_hidden,
        feat_dim=config.feat_dim,
    )
    _, _, _, iteration = gan.load_gan(path, model, gan.TrainConfig())
    if iteration != expected:
        raise CheckFailed(f"{path}: iteration {iteration}, expected {expected}")


def fid_report(path, n_categories):
    """One finite, non-negative FID per category; averages recompute.

    Returns (seen_avg, unseen_avg).
    """
    lines = _data_lines(path)
    if not lines or lines[0] != "category_id,fid,split":
        raise CheckFailed(f"{path}: unexpected header")
    by_split = {"seen": {}, "unseen": {}}
    averages = {}
    for row in lines[1:]:
        key, value, part = row.split(",")
        fid = _finite(value, f"{path} {key}")
        if key in ("seen_avg", "unseen_avg"):
            averages[key] = fid
            continue
        if part not in by_split or fid < 0.0:
            raise CheckFailed(f"{path}: bad row {row!r}")
        by_split[part][int(key)] = fid
    ids = sorted(by_split["seen"]) + sorted(by_split["unseen"])
    if sorted(ids) != list(range(n_categories)):
        raise CheckFailed(f"{path}: categories {sorted(ids)}, expected 0..{n_categories - 1}")
    for part in ("seen", "unseen"):
        values = [by_split[part][c] for c in sorted(by_split[part])]
        stated = averages.get(f"{part}_avg")
        if not values or stated is None or not math.isclose(
            sum(values) / len(values), stated, rel_tol=1e-12, abs_tol=1e-12
        ):
            raise CheckFailed(f"{path}: {part}_avg {stated} does not recompute from {values}")
    return averages["seen_avg"], averages["unseen_avg"]


def ppm_files(directory, count):
    """``count`` sample grids, each a well-formed binary P6 image."""
    paths = sorted(glob.glob(os.path.join(directory, "*.ppm")))
    if len(paths) != count:
        raise CheckFailed(f"{directory}: {len(paths)} .ppm files, expected {count}")
    for path in paths:
        with open(path, "rb") as fh:
            blob = fh.read()
        tokens = []
        pos = 0
        while len(tokens) < 4:
            end = blob.find(b"\n", pos)
            if end < 0:
                raise CheckFailed(f"{path}: truncated header")
            line = blob[pos:end]
            pos = end + 1
            if not line.startswith(b"#"):
                tokens.extend(line.split())
        if tokens[0] != b"P6" or tokens[3] != b"255":
            raise CheckFailed(f"{path}: not a P6 file with maxval 255")
        width, height = int(tokens[1]), int(tokens[2])
        if width < 1 or height < 1 or len(blob) - pos != 3 * width * height:
            raise CheckFailed(f"{path}: payload is {len(blob) - pos} bytes for {width}x{height}")
