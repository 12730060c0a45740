"""Command-line harness: dataset generation, training, evaluation, and the
four-cell ablation.

Verbs: generate-data, train-embedder, train --cell <name>, evaluate,
ablate, report. Global flags: --config <path>, --seed <u64>, --out <dir>.
Exit codes: 0 success, 2 usage/config error, 3 contract violation,
4 numerical abort, 5 I/O error.

Every checkpoint ``train`` writes records its run: the cell, the cell's
lambda_se, the condition mode and every config field. ``train --resume``
continues only a checkpoint of the same run: on the first of those that
differs it exits 3 naming it, before it trains or writes anything. Only
gan_iterations (a resume may train further) and out_dir may differ. A
numerical abort (exit 4) leaves checkpoint.aborted.ckpt in the cell's
directory: the named state at the start of the failing iteration.

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
from dataclasses import asdict

import numpy as np

from . import evaluation, gan, regressor, semantics, synthdata
from .checkpoint import write_atomic
from .config import (
    ExperimentConfig,
    config_hash,
    load_config,
    rebase_seeds,
    save_config,
    validate_config,
)
from .errors import ConfigError, ContractError, NumericalAbort
from .gan import (
    CONDITION_ONE_HOT,
    CONDITION_SEMANTIC,
    GanModel,
    MetricLog,
    TrainConfig,
)

CELLS = ("baseline_full_data", "one_hot_kggan", "kggan_no_se", "kggan_full")

# (condition_mode, train on full data, knowledge loss active)
CELL_RULES = {
    "baseline_full_data": (CONDITION_ONE_HOT, True, False),
    "one_hot_kggan": (CONDITION_ONE_HOT, False, True),
    "kggan_no_se": (CONDITION_SEMANTIC, False, False),
    "kggan_full": (CONDITION_SEMANTIC, False, True),
}

# config fields a resume may change: it may train further, or write elsewhere
RESUME_FREE = ("config.gan_iterations", "config.out_dir")

# Reference ordering from the original full-scale Oxford-flowers study
# (seen FID / unseen FID); absolute values are not comparable to this
# artifact's synthetic feature space.
REFERENCE_FOOTER = (
    "reference ordering, full-scale Oxford flowers study (seen/unseen FID):",
    "  SN-GAN 0.6922/0.6201,"
    " One-hot KG-GAN 0.7077/0.6286,"
    " KG-GAN w/o L_se 0.1412/0.1408,"
    " KG-GAN 0.1385/0.1386",
)


class Workspace:
    """Filesystem layout rooted at the configured output directory."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.root = config.out_dir
        self.dataset_dir = os.path.join(self.root, "dataset")
        self.cells_dir = os.path.join(self.root, "cells")
        self.ablation_dir = os.path.join(self.root, "ablation")
        self.blob_path = os.path.join(self.dataset_dir, "images.blob")
        self.manifest_path = os.path.join(self.dataset_dir, "manifest.csv")
        self.descriptions_path = os.path.join(self.dataset_dir, "descriptions.txt")
        self.embeddings_path = os.path.join(self.dataset_dir, "embeddings.txt")
        self.embedder_path = os.path.join(self.root, "embedder.ckpt")

    def header(self, seed) -> list:
        return [f"config {config_hash(self.config)}", f"seed {seed}"]

    def cell_dir(self, cell: str) -> str:
        return os.path.join(self.cells_dir, cell)

    def checkpoint_path(self, cell: str) -> str:
        return os.path.join(self.cell_dir(cell), "checkpoint.ckpt")


def _specs(config: ExperimentConfig):
    return synthdata.make_category_specs(config.n_categories, config.descriptions_per_category)


def _split(config: ExperimentConfig):
    return synthdata.make_split(
        list(range(config.n_categories)), config.n_unseen, config.split_seed
    )


def _load_dataset(ws: Workspace):
    if not os.path.exists(ws.blob_path):
        raise OSError(f"dataset blob missing: {ws.blob_path} (run generate-data first)")
    images, side = synthdata.load_blob(ws.blob_path)
    ids = synthdata.load_manifest(ws.manifest_path)
    if side != ws.config.image_size:
        raise ContractError("dataset on disk does not match the configuration")
    if len(ids) != images.shape[0]:
        raise ContractError(
            f"{ws.manifest_path} lists {len(ids)} samples, {ws.blob_path} holds {images.shape[0]}"
        )
    return synthdata.Dataset(
        image_size=side, images=images, category_ids=ids, specs=_specs(ws.config)
    )


def cmd_generate_data(ws: Workspace) -> int:
    config = ws.config
    os.makedirs(ws.dataset_dir, exist_ok=True)
    specs = _specs(config)
    dataset = synthdata.build_dataset(
        specs, config.images_per_category, config.image_size, config.data_seed
    )
    embeddings = semantics.build_embeddings(specs, dim=config.embed_dim)

    synthdata.save_blob(ws.blob_path, dataset)
    synthdata.save_manifest(ws.manifest_path, dataset, ws.header(config.data_seed))
    synthdata.save_descriptions(ws.descriptions_path, specs, ws.header(config.data_seed))
    semantics.save_embeddings(ws.embeddings_path, embeddings, ws.header(config.data_seed))
    save_config(os.path.join(ws.root, "config.cfg"), config)
    print(f"wrote {len(dataset)} samples across {config.n_categories} categories to {ws.dataset_dir}")
    return 0


def cmd_train_embedder(ws: Workspace) -> int:
    config = ws.config
    dataset = _load_dataset(ws)
    embeddings = semantics.load_embeddings(ws.embeddings_path)
    split = _split(config)
    seen_rows = np.nonzero(np.isin(dataset.category_ids, sorted(split.seen_ids)))[0]
    samples = [
        synthdata.Sample(image=dataset.images[i], category_id=int(dataset.category_ids[i]))
        for i in seen_rows
    ]
    reg_config = regressor.RegressorConfig(
        embed_dim=config.embed_dim,
        image_size=config.image_size,
        steps=config.embedder_steps,
        batch_size=config.embedder_batch,
        learning_rate=config.embedder_lr,
        plateau_window=config.embedder_plateau,
        seed=config.embedder_seed,
    )
    model = regressor.train_embedder(samples, embeddings, reg_config, seen_ids=split.seen_ids)
    regressor.freeze(model)
    regressor.save_regressor(ws.embedder_path, model)
    final = model.training_loss_history[-1] if model.training_loss_history else float("nan")
    print(f"embedder trained for {len(model.training_loss_history)} steps, final loss {final:.6f}")
    return 0


def _train_config(config: ExperimentConfig, lambda_se: float) -> TrainConfig:
    return TrainConfig(
        lambda_se=lambda_se,
        iterations=config.gan_iterations,
        batch_size=config.batch_size,
        z_dim=config.z_dim,
        d_steps_per_g_step=config.d_steps_per_g_step,
        seed=config.gan_seed,
        learning_rate=config.gan_lr,
        beta1=config.adam_beta1,
        beta2=config.adam_beta2,
    )


def _build_model(config: ExperimentConfig, condition_mode: str, embeddings=None) -> GanModel:
    cond_dim = config.embed_dim if condition_mode == CONDITION_SEMANTIC else config.n_categories
    rng = np.random.default_rng(config.gan_seed)
    model = GanModel(
        image_size=config.image_size,
        cond_dim=cond_dim,
        condition_mode=condition_mode,
        rng=rng,
        z_dim=config.z_dim,
        g_hidden=config.g_hidden,
        d_hidden=config.d_hidden,
        feat_dim=config.feat_dim,
    )
    if condition_mode == CONDITION_SEMANTIC and embeddings:
        matrix, shift = gan.condition_preconditioner(embeddings)
        model.set_condition_preconditioner(matrix, shift)
    return model


def _condition_source(config: ExperimentConfig, condition_mode: str, embeddings):
    if condition_mode == CONDITION_SEMANTIC:
        return gan.semantic_condition_source(embeddings)
    return gan.one_hot_condition_source(range(config.n_categories))


def _run_metadata(config: ExperimentConfig, cell: str) -> dict:
    """What a cell's checkpoint records about its run, in resume-check order."""
    _, _, use_knowledge = CELL_RULES[cell]
    run = {"cell": cell, "lambda_se": config.lambda_se if use_knowledge else 0.0}
    run.update((f"config.{name}", value) for name, value in asdict(config).items())
    return run


def run_cell(ws: Workspace, cell: str, resume: str | None = None):
    """Train one ablation cell; returns (model, log, opt_g, opt_d).

    Every cell trains through ``gan.train``. The full-data baseline is the
    SN-GAN run: lambda_se = 0 and a split that sees every category and
    leaves none unseen, so real batches draw from all of them. A
    ``resume`` checkpoint must have been written by the same run (see the
    module docstring).
    """
    if cell not in CELLS:
        raise ConfigError(f"unknown cell {cell!r}; valid cells: {', '.join(CELLS)}")
    config = ws.config
    condition_mode, full_data, use_knowledge = CELL_RULES[cell]
    run = _run_metadata(config, cell)
    dataset = _load_dataset(ws)
    embeddings = semantics.load_embeddings(ws.embeddings_path)
    if full_data:
        all_ids = set(range(config.n_categories))
        split = synthdata.SplitPlan(seen_ids=all_ids, unseen_ids=set(), seed=config.split_seed)
    else:
        split = _split(config)
    tconfig = _train_config(config, run["lambda_se"])
    model = _build_model(config, condition_mode, embeddings)
    cond = _condition_source(config, condition_mode, embeddings)

    start_iteration = 0
    if resume:
        expect = {k: v for k, v in run.items() if k not in RESUME_FREE}
        model, opt_g, opt_d, start_iteration = gan.load_gan(resume, model, tconfig, run=expect)
    else:
        opt_g, opt_d = gan._make_optimizers(model, tconfig, None, None)

    embedder = None
    if use_knowledge:
        if not os.path.exists(ws.embedder_path):
            raise OSError(f"embedder checkpoint missing: {ws.embedder_path}")
        embedder = regressor.load_regressor(ws.embedder_path, config.image_size, config.embed_dim)
        regressor.freeze(embedder)

    model, log = gan.train(
        model,
        dataset,
        split,
        embeddings,
        embedder,
        tconfig,
        cond=cond,
        start_iteration=start_iteration,
        opt_g=opt_g,
        opt_d=opt_d,
    )
    return model, log, opt_g, opt_d


def cmd_train(ws: Workspace, cell: str, resume: str | None = None) -> int:
    config = ws.config
    cell_dir = ws.cell_dir(cell)
    os.makedirs(cell_dir, exist_ok=True)
    run = _run_metadata(config, cell)
    try:
        model, log, opt_g, opt_d = run_cell(ws, cell, resume=resume)
    except NumericalAbort as abort:
        # the state at the start of the failing iteration, for post-mortem work
        if abort.last_good is not None:
            path = os.path.join(cell_dir, "checkpoint.aborted.ckpt")
            gan.save_gan_state(path, abort.last_good, CELL_RULES[cell][0], run)
        raise
    gan.save_gan(ws.checkpoint_path(cell), model, opt_g, opt_d, config.gan_iterations, run)
    write_atomic(
        os.path.join(cell_dir, "metrics.csv"),
        log.to_csv_text(ws.header(config.gan_seed) + [f"cell {cell}"]),
    )
    print(f"trained cell {cell}: {len(log.rows)} iterations logged")
    return 0


def _write_ppm(path, grid01: np.ndarray, comment: str) -> None:
    """grid01 is [3, H, W] in [0, 1]; written as binary P6."""
    h, w = grid01.shape[1], grid01.shape[2]
    pixels = np.clip(grid01 * 255.0 + 0.5, 0, 255).astype(np.uint8)
    header = f"P6\n# {comment}\n{w} {h}\n255\n".encode("ascii")
    write_atomic(path, header + pixels.transpose(1, 2, 0).tobytes())


def _sample_grid(images: np.ndarray, columns: int = 8) -> np.ndarray:
    n, _, s, _ = images.shape
    rows = (n + columns - 1) // columns
    grid = np.zeros((3, rows * s, columns * s))
    for i in range(n):
        r, c = divmod(i, columns)
        grid[:, r * s : (r + 1) * s, c * s : (c + 1) * s] = (images[i] + 1.0) / 2.0
    return grid


def evaluate_checkpoint(ws: Workspace, cell: str, checkpoint_path: str | None = None):
    """Score one trained cell.

    Returns (FidReport, consistency, color, sample_fn, split). Each
    category's n_gen images are drawn once and go through the regressor's
    trunk once; that draw and its features feed all three metrics.
    """
    config = ws.config
    condition_mode = CELL_RULES[cell][0]
    dataset = _load_dataset(ws)
    embeddings = semantics.load_embeddings(ws.embeddings_path)
    split = _split(config)
    tconfig = _train_config(config, config.lambda_se)
    model = _build_model(config, condition_mode, embeddings)
    path = checkpoint_path or ws.checkpoint_path(cell)
    if not os.path.exists(path):
        raise OSError(f"checkpoint missing: {path}")
    model, _, _, _ = gan.load_gan(path, model, tconfig)

    embedder = regressor.load_regressor(ws.embedder_path, config.image_size, config.embed_dim)
    regressor.freeze(embedder)
    cond = _condition_source(config, condition_mode, embeddings)

    def sample_fn(cid, n):
        return gan.sample_images(model, cid, n, cond, config.eval_seed)

    specs_by_id = {s.id: s for s in dataset.specs}
    consistency, color = {}, {}

    def score_draw(cid, images, features):
        target = embeddings[cid].vector
        consistency[cid] = evaluation.embedding_consistency(embedder, features, target)
        color[cid] = evaluation.color_fidelity(images, specs_by_id[cid].base_color)

    report = evaluation.per_category_fid(
        sample_fn, dataset, split, embedder, config.n_gen, on_draw=score_draw
    )
    return report, consistency, color, sample_fn, split


def cmd_evaluate(ws: Workspace, cell: str, checkpoint_path: str | None = None) -> int:
    _write_evaluation(ws, cell, *evaluate_checkpoint(ws, cell, checkpoint_path))
    return 0


def _write_evaluation(ws: Workspace, cell: str, report, consistency, color, sample_fn, split) -> None:
    """Write a cell's FID report and table, metric CSVs and sample grids."""
    config = ws.config
    cell_dir = ws.cell_dir(cell)
    os.makedirs(cell_dir, exist_ok=True)
    header = ws.header(config.eval_seed) + [f"cell {cell}", f"n_gen {config.n_gen}"]

    lines = [f"# {h}" for h in header]
    lines.append("category_id,fid,split")
    for cid in sorted(report.per_category):
        part = "unseen" if cid in split.unseen_ids else "seen"
        lines.append(f"{cid},{report.per_category[cid]!r},{part}")
    lines.append(f"seen_avg,{report.seen_avg!r},")
    lines.append(f"unseen_avg,{report.unseen_avg!r},")
    write_atomic(os.path.join(cell_dir, "fid_report.csv"), "\n".join(lines) + "\n")

    condition_mode, _, use_knowledge = CELL_RULES[cell]
    table = evaluation.format_fid_table(
        [(cell, condition_mode, use_knowledge, report.seen_avg, report.unseen_avg)], header
    )
    write_atomic(os.path.join(cell_dir, "fid_table.txt"), table)

    for name, mapping in (("consistency.csv", consistency), ("color_fidelity.csv", color)):
        rows = [f"# {h}" for h in header]
        rows.append("category_id,value")
        rows.extend(f"{cid},{mapping[cid]!r}" for cid in sorted(mapping))
        write_atomic(os.path.join(cell_dir, name), "\n".join(rows) + "\n")

    samples_dir = os.path.join(cell_dir, "samples")
    os.makedirs(samples_dir, exist_ok=True)
    n_grid = 8 * config.grid_rows
    for cid in sorted(split.seen_ids | split.unseen_ids):
        grid = _sample_grid(sample_fn(cid, n_grid))
        _write_ppm(
            os.path.join(samples_dir, f"category_{cid}.ppm"),
            grid,
            f"config {config_hash(config)} seed {config.eval_seed} cell {cell} category {cid}",
        )
    print(
        f"evaluated {cell}: seen FID {report.seen_avg:.4f}, unseen FID {report.unseen_avg:.4f}"
    )


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
    config = ws.config
    cmd_generate_data(ws)
    cmd_train_embedder(ws)

    results = {}
    failures = {}
    for cell in CELLS:
        try:
            cmd_train(ws, cell)
            evaluated = evaluate_checkpoint(ws, cell)
            _write_evaluation(ws, cell, *evaluated)
            results[cell] = evaluated[0]
        except (ContractError, NumericalAbort, OSError, ConfigError) as exc:
            failures[cell] = f"{type(exc).__name__}: {exc}"

    os.makedirs(ws.ablation_dir, exist_ok=True)
    header = ws.header(config.gan_seed)
    csv_lines = [f"# {h}" for h in header]
    csv_lines.append("method,condition,l_se,seen_fid,unseen_fid")
    table_rows = []
    for cell in CELLS:
        condition_mode, _, use_knowledge = CELL_RULES[cell]
        flag = "yes" if use_knowledge else "no"
        if cell in results:
            rep = results[cell]
            csv_lines.append(f"{cell},{condition_mode},{flag},{rep.seen_avg!r},{rep.unseen_avg!r}")
            table_rows.append((cell, condition_mode, use_knowledge, rep.seen_avg, rep.unseen_avg))
        else:
            csv_lines.append(f"{cell},{condition_mode},{flag},failed,failed")
    write_atomic(os.path.join(ws.ablation_dir, "combined.csv"), "\n".join(csv_lines) + "\n")

    text = evaluation.format_fid_table(table_rows, header)
    verdicts = _verdict_lines(results)
    report_lines = [text.rstrip("\n"), ""]
    report_lines.extend(verdicts)
    for cell, why in failures.items():
        report_lines.append(f"cell {cell} FAILED: {why}")
    report_lines.append("")
    report_lines.extend(REFERENCE_FOOTER)
    report_text = "\n".join(report_lines) + "\n"
    write_atomic(os.path.join(ws.ablation_dir, "combined.txt"), report_text)
    print(report_text, end="")

    if failures:
        return 4 if any("NumericalAbort" in why for why in failures.values()) else 3
    return 0


def cmd_report(ws: Workspace) -> int:
    path = os.path.join(ws.ablation_dir, "combined.txt")
    if not os.path.exists(path):
        raise OSError(f"no ablation report at {path} (run ablate first)")
    with open(path, "r", encoding="utf-8") as fh:
        print(fh.read(), end="")
    return 0


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
    sub.add_parser("train-embedder", help="fit and freeze the embedding regressor")
    p_train = sub.add_parser("train", help="train one ablation cell")
    p_train.add_argument("--cell", required=True, help=f"one of: {', '.join(CELLS)}")
    p_train.add_argument("--resume", help="checkpoint to continue from")
    p_eval = sub.add_parser("evaluate", help="score a trained cell")
    p_eval.add_argument("--cell", required=True, help=f"one of: {', '.join(CELLS)}")
    p_eval.add_argument("--checkpoint", help="checkpoint path override")
    sub.add_parser("ablate", help="run all four cells and emit the combined table")
    sub.add_parser("report", help="print the combined ablation report")
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
            if args.cell not in CELLS:
                print(
                    f"unknown cell {args.cell!r}; valid cells: {', '.join(CELLS)}",
                    file=sys.stderr,
                )
                return 2
            return cmd_train(ws, args.cell, resume=args.resume)
        if args.command == "evaluate":
            if args.cell not in CELLS:
                print(
                    f"unknown cell {args.cell!r}; valid cells: {', '.join(CELLS)}",
                    file=sys.stderr,
                )
                return 2
            return cmd_evaluate(ws, args.cell, checkpoint_path=args.checkpoint)
        if args.command == "ablate":
            return cmd_ablate(ws)
        if args.command == "report":
            return cmd_report(ws)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ContractError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 3
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
