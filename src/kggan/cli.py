"""Command-line harness: dataset generation, training, evaluation, and the
four-cell ablation.

Verbs: generate-data, train-embedder, train --cell <name>, evaluate,
ablate. Global flags: --config <path>, --seed <u64>, --out <dir>.
Exit codes: 0 success, 2 usage/config error, 3 contract violation,
4 numerical abort, 5 I/O error. ``train`` is ``cmd_train``: it trains
one cell and writes its checkpoint.ckpt and metrics.csv. ``evaluate`` is
``evaluate_checkpoint``: one loop draws and scores each category once,
then it writes a cell's fid_report.csv, consistency.csv,
color_fidelity.csv and samples/category_<id>.ppm grids, each grid the
head of the draw the metrics score. ``ablate`` is ``generate-data``,
``train-embedder``, then ``cmd_train`` and ``evaluate_checkpoint`` per
cell; it writes ablation/combined.csv and combined.txt, whose table
holds each cell's seen and unseen FID averages, and exits with the code
of the first cell that failed, in ``CELLS`` order. Every CSV is written
by ``_write_table``, each float as its ``repr``.

``dataset/dataset.ckpt`` (the float32 images and the category table)
and ``embedder.ckpt`` record the config fields they depend on. A verb
that reads one exits 3 naming the file and the first such field, or
tensor shape or dtype, that does not match its own config. A NaN or an
infinity in any checkpoint a verb reads, these or a GAN's, exits 3
naming the file, the tensor and its first such row (in the dataset, the
sample or the category). A dataset file holding float64 images exits 3
naming the ``images`` tensor; ``generate-data`` writes it anew. A GAN
checkpoint holding float64 arrays exits 3 from ``train --resume`` and
from ``evaluate`` naming its first tensor, ``G.w1``; it cannot be
resumed or scored. ``evaluate`` scores only its own cell's checkpoint:
one another cell wrote exits 3 naming ``cell``, and one trained on other
data or against another embedder exits 3 naming the first
``EMBEDDER_FIELDS`` field that differs. All of these checks run before
anything is written.

Every checkpoint ``train`` writes records its run: the cell, the cell's
lambda_se, the condition mode and every config field but out_dir, where
the run writes. ``train --resume`` continues only a checkpoint of the
same run: on the first of those that differs it exits 3 naming it,
before it trains or writes anything. Only gan_iterations may differ (a
resume may train further); a checkpoint at or past it exits 3 naming
both numbers, and one whose metadata iteration is not a non-negative
int exits 3 naming it. A resume also reads the log written with the
checkpoint (``metrics.csv``, or ``metrics.aborted.csv`` beside
``checkpoint.aborted.ckpt``), which must hold the rows of iterations
0..start-1 as ``train`` wrote them; otherwise it exits 3 naming the
file and the first bad row. The new log holds those rows, verbatim, and
then the resumed ones. A numerical abort (exit 4) leaves in the cell's
directory checkpoint.aborted.ckpt, the named state at the start of the
failing iteration, and metrics.aborted.csv, the rows of the iterations
before it; an earlier run's checkpoint.ckpt and metrics.csv are left as
they were. ``train`` makes the cell's directory first, so one it cannot
make exits 5 before anything trains.

Ablation cells (condition, training data, knowledge loss):
    baseline_full_data  one-hot     all categories   off
    one_hot_kggan       one-hot     seen only        on
    kggan_no_se         embedding   seen only        off
    kggan_full          embedding   seen only        on
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import evaluation, gan, regressor, semantics, synthdata
from .checkpoint import write_atomic
from .config import (
    ExperimentConfig,
    config_fields,
    config_hash,
    load_config,
    rebase_seeds,
    save_config,
    validate_config,
)
from .errors import ConfigError, ContractError, NumericalAbort
from .gan import CONDITION_ONE_HOT, CONDITION_SEMANTIC, GanModel

# (condition_mode, train on full data, knowledge loss active)
CELL_RULES = {
    "baseline_full_data": (CONDITION_ONE_HOT, True, False),
    "one_hot_kggan": (CONDITION_ONE_HOT, False, True),
    "kggan_no_se": (CONDITION_SEMANTIC, False, False),
    "kggan_full": (CONDITION_SEMANTIC, False, True),
}
CELLS = tuple(CELL_RULES)  # the --cell choices and ablate's order

# sample grids are GRID_COLUMNS images wide and config.grid_rows high
GRID_COLUMNS = 8

# config fields a resume may change: it may train further
RESUME_FREE = ("config.gan_iterations",)

# a numerical abort's state and log, a pair beside checkpoint.ckpt and metrics.csv
ABORTED_CHECKPOINT, ABORTED_LOG = "checkpoint.aborted.ckpt", "metrics.aborted.csv"

# each failure a verb may raise: its exit code and its stderr label
EXIT_CODES = {
    ConfigError: (2, "config error"),
    ContractError: (3, "contract violation"),
    NumericalAbort: (4, "numerical abort"),
    OSError: (5, "i/o error"),
}

class Workspace:
    """Filesystem layout rooted at the configured output directory."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.root = config.out_dir
        self.dataset_dir = os.path.join(self.root, "dataset")
        self.cells_dir = os.path.join(self.root, "cells")
        self.ablation_dir = os.path.join(self.root, "ablation")
        self.dataset_path = os.path.join(self.dataset_dir, "dataset.ckpt")
        self.descriptions_path = os.path.join(self.dataset_dir, "descriptions.txt")
        self.embedder_path = os.path.join(self.root, "embedder.ckpt")

    def header(self, seed) -> list:
        return [f"config {config_hash(self.config)}", f"seed {seed}"]

    def cell_dir(self, cell: str) -> str:
        return os.path.join(self.cells_dir, cell)

    def checkpoint_path(self, cell: str) -> str:
        return os.path.join(self.cell_dir(cell), "checkpoint.ckpt")


def _split(config: ExperimentConfig):
    return synthdata.make_split(
        list(range(config.n_categories)), config.n_unseen, config.split_seed
    )


def cmd_generate_data(ws: Workspace) -> int:
    config = ws.config
    os.makedirs(ws.dataset_dir, exist_ok=True)
    specs = synthdata.make_category_specs(config.n_categories, config.descriptions_per_category)
    dataset = synthdata.build_dataset(
        specs, config.images_per_category, config.image_size, config.data_seed
    )
    embeddings = semantics.build_embeddings(specs, dim=config.embed_dim)

    synthdata.save_dataset(ws.dataset_path, dataset, embeddings, config)
    synthdata.save_descriptions(ws.descriptions_path, specs, ws.header(config.data_seed))
    save_config(os.path.join(ws.root, "config.cfg"), config)
    print(f"wrote {len(dataset)} samples across {config.n_categories} categories to {ws.dataset_dir}")
    return 0


def cmd_train_embedder(ws: Workspace) -> int:
    config = ws.config
    dataset, embeddings = synthdata.load_dataset(ws.dataset_path, config)
    split = _split(config)
    seen_rows = dataset.rows_of(split.seen_ids)
    model = regressor.train_embedder(
        dataset.images[seen_rows],
        dataset.category_ids[seen_rows],
        embeddings,
        config,
        seen_ids=split.seen_ids,
    )
    regressor.save_regressor(ws.embedder_path, model, config)
    history = model.training_loss_history
    print(f"embedder trained for {len(history)} steps, final loss {history[-1]:.6f}")
    return 0


def _build_model(config: ExperimentConfig, condition_mode: str, embeddings):
    """(model, cond): the freshly initialized model training starts from, a
    resume loads into and evaluate samples from, and the condition table
    ``gan.condition_table`` computes from ``embeddings``, the dataset's
    category table. The table's width is the model's ``cond_dim``. So the
    conditioning a checkpoint was trained under is recomputed, not stored."""
    cond = gan.condition_table(condition_mode, embeddings)
    return GanModel(
        image_size=config.image_size,
        cond_dim=cond.shape[1],
        condition_mode=condition_mode,
        rng=np.random.default_rng(config.gan_seed),
        z_dim=config.z_dim,
        g_hidden=config.g_hidden,
        d_hidden=config.d_hidden,
        feat_dim=config.feat_dim,
    ), cond


def _run_metadata(config: ExperimentConfig, cell: str) -> dict:
    """What a cell's checkpoint records about its run, in resume-check order:
    every config field but ``out_dir``, where the run writes."""
    lambda_se = config.lambda_se if CELL_RULES[cell][2] else 0.0
    names = [name for name in asdict(config) if name != "out_dir"]
    return {"cell": cell, "lambda_se": lambda_se, **config_fields(config, names)}


def _logged_rows(path: str, start: int) -> list:
    """Rows 0..start-1 of the metric log at ``path``, each written exactly as
    ``_row_text`` writes it; otherwise ContractError names the first bad row."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        lines = [line for line in fh.read().splitlines() if not line.startswith(("#", "iteration,"))]
    rows = []
    for i in range(max(start, len(lines))):
        try:
            it, *losses = lines[i].split(",")
            rows.append((int(it), *map(float, losses)))
            ok = i < start and rows[i][0] == i and _row_text(rows[i]) == lines[i]
        except (IndexError, ValueError):  # a missing row, or not an int and four floats
            ok = False
        if not ok:
            found = repr(lines[i]) if i < len(lines) else "missing"
            raise ContractError(f"{path}: row {i} of the checkpoint's 0..{start - 1} is {found}")
    return rows


def cmd_train(ws: Workspace, cell: str, resume: str | None = None) -> int:
    """Train one ablation cell and write its checkpoint and metric log.

    Every cell trains through ``gan.train``. The full-data baseline is the
    SN-GAN run: lambda_se = 0 and a split that sees every category and
    leaves none unseen, so real batches draw from all of them. A
    ``resume`` checkpoint must have been written by the same run, and the
    log beside it must hold its iterations (see the module docstring); the
    written log then starts with those rows.
    """
    config = ws.config
    condition_mode, full_data, use_knowledge = CELL_RULES[cell]
    run = _run_metadata(config, cell)
    cell_dir = ws.cell_dir(cell)
    header = ws.header(config.gan_seed) + [f"cell {cell}"]
    # first, so an output directory that cannot be made fails before any training
    os.makedirs(cell_dir, exist_ok=True)
    dataset, embeddings = synthdata.load_dataset(ws.dataset_path, config)
    if full_data:
        all_ids = set(range(config.n_categories))
        split = synthdata.SplitPlan(seen_ids=all_ids, unseen_ids=set())
    else:
        split = _split(config)
    cell_config = replace(config, lambda_se=run["lambda_se"])
    model, cond = _build_model(config, condition_mode, embeddings)

    start_iteration, log = 0, []
    if resume:
        expect = {k: v for k, v in run.items() if k not in RESUME_FREE}
        _, opt_g, opt_d, start_iteration = gan.load_gan(resume, model, cell_config, run=expect)
        if start_iteration >= config.gan_iterations:
            raise ContractError(
                f"{resume}: checkpoint has iteration {start_iteration}, at or past this run's "
                f"gan_iterations {config.gan_iterations}; there is nothing to train"
            )
        name = ABORTED_LOG if os.path.basename(resume) == ABORTED_CHECKPOINT else "metrics.csv"
        log = _logged_rows(os.path.join(os.path.dirname(resume), name), start_iteration)
    else:
        opt_g, opt_d = gan.new_optimizers(model, cell_config)

    embedder = None
    if use_knowledge:
        embedder = regressor.load_regressor(ws.embedder_path, config)

    try:
        log = gan.train(
            model,
            dataset,
            split,
            cond,
            embeddings,
            embedder,
            cell_config,
            start_iteration=start_iteration,
            opt_g=opt_g,
            opt_d=opt_d,
            log=log,
        )
    except NumericalAbort as abort:
        # the state at the start of the failing iteration and the log before
        # it, for post-mortem work or a resume
        path = os.path.join(cell_dir, ABORTED_CHECKPOINT)
        gan.save_gan(path, abort.last_good, condition_mode, abort.iteration, run)
        _write_table(os.path.join(cell_dir, ABORTED_LOG), header, gan.METRIC_COLUMNS, abort.log)
        raise
    state = gan.gan_state(model, opt_g, opt_d)
    gan.save_gan(ws.checkpoint_path(cell), state, condition_mode, config.gan_iterations, run)
    _write_table(os.path.join(cell_dir, "metrics.csv"), header, gan.METRIC_COLUMNS, log)
    print(f"trained cell {cell}: {len(log)} iterations logged")
    return 0


def _row_text(row) -> str:
    """One CSV line: ``str`` of each value, for a float its ``repr``."""
    return ",".join(map(str, row))


def _write_table(path, header_lines, columns, rows) -> None:
    """A ``# `` line per header line, the ``columns`` line, a ``_row_text`` line per row."""
    lines = [f"# {line}" for line in header_lines] + [",".join(columns)]
    lines.extend(map(_row_text, rows))
    write_atomic(path, "\n".join(lines) + "\n")


def _write_ppm(path, grid01: np.ndarray, comment: str) -> None:
    """grid01 is [3, H, W] in [0, 1]; written as binary P6."""
    h, w = grid01.shape[1], grid01.shape[2]
    pixels = np.clip(grid01 * 255.0 + 0.5, 0, 255).astype(np.uint8)
    header = f"P6\n# {comment}\n{w} {h}\n255\n".encode("ascii")
    write_atomic(path, header + pixels.transpose(1, 2, 0).tobytes())


def _sample_grid(images: np.ndarray) -> np.ndarray:
    """[3, rows*S, GRID_COLUMNS*S] float64 in [0, 1] from GRID_COLUMNS * rows
    [3, S, S] images in [-1, 1], row-major; rescaled in their own dtype."""
    n, _, s, _ = images.shape
    rows = n // GRID_COLUMNS
    tiles = ((images + 1.0) / 2.0).astype(np.float64).reshape(rows, GRID_COLUMNS, 3, s, s)
    return tiles.transpose(2, 0, 3, 1, 4).reshape(3, rows * s, GRID_COLUMNS * s)


def evaluate_checkpoint(ws: Workspace, cell: str, checkpoint_path: str | None = None):
    """Score one trained cell, write its FID report, metric CSVs and sample
    grids, and return its FidReport.

    The checkpoint is restored and verified whole by ``gan.load_gan``, the
    loader a resume uses; only its generator is read. The condition table
    is rebuilt from the dataset's category table, as training built it.
    One loop visits the categories in id order. Each is drawn once,
    max(n_gen, grid size) images; the head is its sample grid. The first n_gen go through the
    regressor's trunk once, and those features feed the FID statistics and
    embedding consistency, as the draw feeds color fidelity. The category's
    real images go through the trunk for the FID's other side. Every file
    is written after the loop, so a failure in it writes nothing.
    """
    config = ws.config
    dataset, embeddings = synthdata.load_dataset(ws.dataset_path, config)
    split = _split(config)
    path = checkpoint_path or ws.checkpoint_path(cell)
    if not os.path.exists(path):
        raise OSError(f"checkpoint missing: {path}")
    embedder = regressor.load_regressor(ws.embedder_path, config)
    run = {"cell": cell, **config_fields(config, regressor.EMBEDDER_FIELDS)}
    model, cond = _build_model(config, CELL_RULES[cell][0], embeddings)
    gan.load_gan(path, model, config, run=run)  # its optimizers go unused

    n_grid = GRID_COLUMNS * config.grid_rows
    fid, consistency, color, grids = {}, {}, {}, {}
    for cid in sorted(split.seen_ids | split.unseen_ids):
        images = gan.sample_images(model, cid, max(config.n_gen, n_grid), cond, config.eval_seed)
        grids[cid] = _sample_grid(images[:n_grid])
        fakes = images[: config.n_gen]
        features = regressor.extract_features(embedder, fakes)
        reals = dataset.images[dataset.rows_of([cid])]
        real_stats = evaluation.feature_stats(regressor.extract_features(embedder, reals))
        fid[cid] = evaluation.frechet_distance(evaluation.feature_stats(features), real_stats)
        consistency[cid] = evaluation.embedding_consistency(embedder, features, embeddings[cid])
        color[cid] = evaluation.color_fidelity(fakes, dataset.specs[cid].color)
    report = evaluation.fid_report(fid, split)

    cell_dir = ws.cell_dir(cell)
    os.makedirs(cell_dir, exist_ok=True)
    header = ws.header(config.eval_seed) + [f"cell {cell}"]
    table_header = header + [f"n_gen {config.n_gen}"]
    rows = [
        (cid, report.per_category[cid], "unseen" if cid in split.unseen_ids else "seen")
        for cid in sorted(report.per_category)
    ]
    rows += [("seen_avg", report.seen_avg, ""), ("unseen_avg", report.unseen_avg, "")]
    _write_table(
        os.path.join(cell_dir, "fid_report.csv"), table_header, ("category_id", "fid", "split"), rows
    )
    for name, mapping in (("consistency.csv", consistency), ("color_fidelity.csv", color)):
        rows = [(cid, mapping[cid]) for cid in sorted(mapping)]
        _write_table(os.path.join(cell_dir, name), table_header, ("category_id", "value"), rows)

    samples_dir = os.path.join(cell_dir, "samples")
    os.makedirs(samples_dir, exist_ok=True)
    for cid in sorted(grids):
        comment = " ".join(header + [f"category {cid}"])
        _write_ppm(os.path.join(samples_dir, f"category_{cid}.ppm"), grids[cid], comment)
    print(f"evaluated {cell}: seen FID {report.seen_avg:.4f}, unseen FID {report.unseen_avg:.4f}")
    return report


def _verdict_lines(results: dict) -> list:
    """Ordering checks over the unseen-average FIDs of the four cells."""
    lines = []

    def check(label, a, b):
        if a in results and b in results:
            va, vb = results[a].unseen_avg, results[b].unseen_avg
            ok = "holds" if va < vb else "FAILS"
            lines.append(f"verdict: {label}: {a} {va:.4f} < {b} {vb:.4f} -> {ok}")
        else:
            lines.append(f"verdict: {label}: skipped (missing cell results)")

    check("embedding condition beats one-hot (unseen)", "kggan_full", "one_hot_kggan")
    check("interpolation without knowledge loss (unseen)", "kggan_no_se", "one_hot_kggan")
    if all(c in results for c in ("kggan_full", "one_hot_kggan", "kggan_no_se")):
        best = min(("kggan_full", "one_hot_kggan", "kggan_no_se"), key=lambda c: results[c].unseen_avg)
        ok = "holds" if best == "kggan_full" else "FAILS"
        lines.append(f"verdict: full method best among knowledge cells (unseen) -> {ok}")
    return lines


def cmd_ablate(ws: Workspace) -> int:
    """Run all four cells with shared data and embedder, then report."""
    cmd_generate_data(ws)
    cmd_train_embedder(ws)

    results, failures = {}, {}
    for cell in CELLS:
        try:
            cmd_train(ws, cell)
            results[cell] = evaluate_checkpoint(ws, cell)
        except tuple(EXIT_CODES) as exc:
            failures[cell] = exc

    os.makedirs(ws.ablation_dir, exist_ok=True)
    header = ws.header(ws.config.gan_seed)
    rows = []
    for cell in CELLS:
        condition_mode, _, use_knowledge = CELL_RULES[cell]
        report = results.get(cell)
        scores = (report.seen_avg, report.unseen_avg) if report else ("failed", "failed")
        rows.append((cell, condition_mode, "yes" if use_knowledge else "no", *scores))
    columns = ("method", "condition", "l_se", "seen_fid", "unseen_fid")
    _write_table(os.path.join(ws.ablation_dir, "combined.csv"), header, columns, rows)

    scored = [row for row in rows if row[0] in results]
    table = evaluation.format_fid_table(scored, header).rstrip("\n")
    failed = [f"cell {cell} FAILED: {type(exc).__name__}: {exc}" for cell, exc in failures.items()]
    report_text = "\n".join([table, "", *_verdict_lines(results), *failed, ""])
    write_atomic(os.path.join(ws.ablation_dir, "combined.txt"), report_text)
    print(report_text, end="")

    return _failure(next(iter(failures.values())))[0] if failures else 0


def _failure(exc: Exception) -> tuple:
    """(exit code, label) of the first EXIT_CODES entry ``exc`` is an instance of."""
    return next(entry for kind, entry in EXIT_CODES.items() if isinstance(exc, kind))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kggan",
        description="knowledge-guided GAN experiments on a synthetic flower dataset",
    )
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--seed", type=int, help="master seed; rebases all run seeds")
    parser.add_argument("--out", help="output directory (overrides config)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("generate-data", help="write the dataset, descriptions, and embeddings")
    sub.add_parser("train-embedder", help="fit the embedding regressor L_se and evaluation read")
    p_train = sub.add_parser("train", help="train one ablation cell")
    p_train.add_argument("--cell", required=True, choices=CELLS)
    p_train.add_argument("--resume", help="checkpoint to continue from")
    p_eval = sub.add_parser("evaluate", help="score a trained cell")
    p_eval.add_argument("--cell", required=True, choices=CELLS)
    p_eval.add_argument("--checkpoint", help="checkpoint path override")
    sub.add_parser("ablate", help="run all four cells and emit the combined table")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else ExperimentConfig()
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(f"--seed must be >= 0, got {args.seed}")
            rebase_seeds(config, args.seed)
        if args.out:
            config.out_dir = args.out
        validate_config(config)
        ws = Workspace(config)

        if args.command == "generate-data":
            return cmd_generate_data(ws)
        if args.command == "train-embedder":
            return cmd_train_embedder(ws)
        if args.command == "train":
            return cmd_train(ws, args.cell, resume=args.resume)
        if args.command == "evaluate":
            evaluate_checkpoint(ws, args.cell, checkpoint_path=args.checkpoint)
            return 0
        if args.command == "ablate":
            return cmd_ablate(ws)
        return 2
    except tuple(EXIT_CODES) as exc:
        code, label = _failure(exc)
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
