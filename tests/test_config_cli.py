"""Configuration round-trips and the command-line harness."""

import hashlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kggan.config import (
    ExperimentConfig,
    config_hash,
    parse_config,
    rebase_seeds,
    serialize_config,
)
from kggan.errors import ConfigError

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

TINY = """
n_categories = 6
images_per_category = 10
image_size = 8
n_unseen = 2
embed_dim = 16
embedder_steps = 120
gan_iterations = 40
batch_size = 8
z_dim = 8
g_hidden = 24
d_hidden = 24
feat_dim = 12
n_gen = 12
out_dir = {out}
"""


def run_cli(args, cwd):
    # an absolute src path, so the child imports kggan from any cwd
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "kggan.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )
    return proc


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "exp.cfg"
    cfg_path.write_text(TINY.format(out=root / "out"))
    proc = run_cli(["--config", str(cfg_path), "generate-data"], cwd=root)
    assert proc.returncode == 0, proc.stderr
    proc = run_cli(["--config", str(cfg_path), "train-embedder"], cwd=root)
    assert proc.returncode == 0, proc.stderr
    return root, cfg_path


class TestConfig:
    def test_round_trip_equality(self):
        config = ExperimentConfig(lambda_se=0.07, gan_lr=3e-4, out_dir="some/dir")
        assert parse_config(serialize_config(config)) == config

    def test_defaults_round_trip(self):
        config = ExperimentConfig()
        assert parse_config(serialize_config(config)) == config

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("nonsense = 3\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("gan_iterations = soon\n")

    def test_comments_and_blanks_ignored(self):
        config = parse_config("# hello\n\nn_categories = 9\n")
        assert config.n_categories == 9

    def test_hash_changes_with_content(self):
        a = ExperimentConfig()
        b = ExperimentConfig(lambda_se=0.2)
        assert config_hash(a) != config_hash(b)

    def test_rebase_seeds(self):
        config = rebase_seeds(ExperimentConfig(), 7000)
        assert (
            config.data_seed,
            config.split_seed,
            config.embedder_seed,
            config.gan_seed,
            config.eval_seed,
        ) == (7000, 7001, 7002, 7003, 7004)

    @pytest.mark.parametrize(
        "line",
        [f"{seed} = -1" for seed in ("data_seed", "split_seed", "embedder_seed", "gan_seed", "eval_seed")]
        + ["batch_size = 0", "embedder_batch = 0", "batch_size = -4"]
        + ["gan_lr = 0", "embedder_lr = -1e-3", "embedder_lr = inf", "lambda_se = nan",
           "n_gen = 1", "z_dim = 0", "d_hidden = 0", "feat_dim = 0", "grid_rows = 0",
           "n_categories = 1", "embedder_steps = 0", "embedder_plateau = -1",
           "n_categories = 37"]
        + ["image_size = 4", "image_size = 7", "images_per_category = 1",
           "descriptions_per_category = 0", "n_unseen = 0", "n_unseen = 12", "lambda_se = -0.1"],
    )
    def test_out_of_range_value_rejected_naming_its_field(self, line):
        with pytest.raises(ConfigError, match=line.split()[0]):
            parse_config(line + "\n")

    @pytest.mark.parametrize(
        "settings, args",
        [
            ("", ["--seed", "-1", "--out", "o", "generate-data"]),
            ("", ["--seed", "-3", "--out", "o", "generate-data"]),
            ("batch_size = 0\n", ["train", "--cell", "kggan_full"]),
            ("embedder_batch = 0\n", ["train-embedder"]),
            ("embed_dim = 0\n", ["generate-data"]),
            ("images_per_category = 0\n", ["generate-data"]),
            ("g_hidden = 0\n", ["train", "--cell", "kggan_full"]),
            ("g_hidden = 0\n", ["evaluate", "--cell", "kggan_full"]),
            ("gan_lr = nan\n", ["train", "--cell", "kggan_full"]),
            ("n_gen = 1\n", ["evaluate", "--cell", "kggan_full"]),
            ("descriptions_per_category = 0\n", ["generate-data"]),
            ("images_per_category = 1\n", ["evaluate", "--cell", "kggan_full"]),
            ("n_categories = 40\n", ["generate-data"]),
        ],
    )
    def test_out_of_range_seed_or_batch_exits_2_without_traceback(self, tmp_path, settings, args):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(settings)
        proc = run_cli(["--config", str(cfg), *args], cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        # the message names what the user set, the flag or the config key,
        # and the run stops before it writes anything
        if "--seed" in args:
            seed = args[args.index("--seed") + 1]
            assert f"config error: --seed must be >= 0, got {seed}" in proc.stderr
        else:
            assert f"config error: {settings.split()[0]} must be" in proc.stderr
        assert list(tmp_path.iterdir()) == [cfg]

    def test_category_bound_is_the_recipe_count(self):
        """validate_config's n_categories bound is the number of category
        recipes synthdata has, and the message names the range it enforces."""
        from kggan import synthdata as sd
        from kggan.config import MAX_CATEGORIES

        assert MAX_CATEGORIES == len(sd.PALETTE) * len(sd.SHAPES) * len(sd.TEXTURES)
        assert parse_config(f"n_categories = {MAX_CATEGORIES}\n").n_categories == MAX_CATEGORIES
        assert len(sd.make_category_specs(MAX_CATEGORIES)) == MAX_CATEGORIES
        with pytest.raises(ConfigError, match=rf"^n_categories must be in \[2, {MAX_CATEGORIES}\], got 37$"):
            parse_config("n_categories = 37\n")

    def test_repeated_key_rejected_naming_both_lines(self):
        text = "gan_iterations = 2\nbatch_size = 4\n\ngan_iterations = 5\n"
        with pytest.raises(ConfigError, match="'gan_iterations' is set on line 1 and again on line 4"):
            parse_config(text)

    def test_zero_plateau_and_zero_betas_accepted(self):
        config = parse_config("embedder_plateau = 0\n")
        assert config.embedder_plateau == 0

    @pytest.mark.parametrize(
        "key, value", [("d_steps_per_g_step", "1"), ("adam_beta1", "0.0"), ("adam_beta2", "0.9")]
    )
    def test_removed_training_key_exits_2_before_writing(self, tmp_path, capsys, key, value):
        """One D step per G step and Adam's betas are constants of the GAN,
        not config keys: a config that still sets one, even to the value
        the GAN uses, is rejected."""
        from kggan import cli

        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY.format(out=tmp_path / "out") + f"{key} = {value}\n")
        assert cli.main(["--config", str(cfg), "generate-data"]) == 2
        n = len(cfg.read_text().splitlines())
        assert f"config error: unknown config key '{key}' on line {n}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize(
        "verb",
        [["generate-data"], ["train-embedder"], ["train", "--cell", "kggan_full"],
         ["evaluate", "--cell", "kggan_full"], ["ablate"]],
    )
    @pytest.mark.parametrize("spelling", ["config", "flag"])
    def test_empty_out_dir_exits_2_writing_nothing(self, tmp_path, monkeypatch, capsys, verb, spelling):
        """An empty out_dir, an ``out_dir =`` line or ``--out ""``, would
        write into the working directory; every verb refuses it first."""
        from kggan import cli

        cfg = tmp_path / "exp.cfg"
        cfg.write_text("out_dir =\n" if spelling == "config" else "gan_iterations = 2\n")
        args = ["--config", str(cfg)] + (["--out", ""] if spelling == "flag" else [])
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert cli.main([*args, *verb]) == 2
        err = capsys.readouterr().err
        assert "config error: out_dir must not be empty" in err and "Traceback" not in err
        assert list(work.iterdir()) == [] and sorted(tmp_path.iterdir()) == [cfg, work]


class TestVerbs:
    def test_docstring_names_every_verb_the_parser_takes(self):
        from kggan import cli

        listed = re.search(r"Verbs: (.*?)\. ", cli.__doc__, re.DOTALL).group(1)
        documented = [item.split()[0] for item in listed.split(",")]
        usage = cli.build_parser().format_usage()
        assert documented == re.search(r"\{(.*?)\}", usage).group(1).split(",")

    def test_removed_report_verb_exits_2(self, tmp_path):
        proc = run_cli(["report"], cwd=tmp_path)
        assert proc.returncode == 2
        assert "invalid choice: 'report'" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestAllocatorThresholds:
    @pytest.mark.parametrize(
        "libc, calls", [("glibc", [(-1, 256 << 20), (-3, 32 << 20)]), ("", [])], ids=["glibc", "other"]
    )
    def test_main_sets_the_thresholds_only_under_glibc(self, monkeypatch, libc, calls):
        """``main`` first sets glibc's M_TRIM_THRESHOLD to 256 MiB and
        M_MMAP_THRESHOLD to 32 MiB through ``mallopt``, and under another
        C library loads nothing."""
        from kggan import cli

        made = []

        class Libc:
            def __init__(self, name):
                self.mallopt = lambda *args: made.append(args) or 1

        monkeypatch.setattr(cli.platform, "libc_ver", lambda: (libc, ""))
        monkeypatch.setattr(cli.ctypes, "CDLL", Libc)
        assert cli.main(["--seed", "-1", "generate-data"]) == 2  # refused before any work
        assert made == calls


class TestGenerateData:
    def test_dataset_files_exist_and_parse(self, workspace):
        root, cfg_path = workspace
        out = root / "out" / "dataset"
        from kggan import synthdata as sd
        from kggan.config import load_config

        assert sorted(p.name for p in out.iterdir()) == ["dataset.ckpt", "descriptions.txt"]
        _, embeddings = sd.load_dataset(out / "dataset.ckpt", load_config(cfg_path))
        assert embeddings.shape == (6, 16)
        lines = (out / "descriptions.txt").read_text().splitlines()
        assert {int(l.split()[1]) for l in lines if l.startswith("#category ")} == set(range(6))

    def test_dataset_row_count(self, workspace):
        root, cfg_path = workspace
        from kggan import synthdata as sd
        from kggan.config import load_config

        dataset, _ = sd.load_dataset(root / "out" / "dataset" / "dataset.ckpt", load_config(cfg_path))
        assert dataset.images.shape == (6 * 10, 3, 8, 8)
        assert dataset.category_ids.tolist() == [c for c in range(6) for _ in range(10)]

    def test_written_images_are_the_built_images(self, workspace):
        """A dataset built in process and the one generate-data wrote hold
        the same float32 images, bit for bit."""
        root, cfg_path = workspace
        from kggan import synthdata as sd
        from kggan.config import load_config

        config = load_config(cfg_path)
        written, _ = sd.load_dataset(root / "out" / "dataset" / "dataset.ckpt", config)
        specs = sd.make_category_specs(config.n_categories, config.descriptions_per_category)
        built = sd.build_dataset(specs, config.images_per_category, config.image_size, config.data_seed)
        assert built.images.dtype == written.images.dtype == np.float32
        assert built.images.tobytes() == written.images.tobytes()

    def test_rerun_is_byte_identical(self, workspace):
        root, cfg_path = workspace
        out = root / "out" / "dataset"
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        proc = run_cli(["--config", str(cfg_path), "generate-data"], cwd=root)
        assert proc.returncode == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_artifacts_carry_config_hash(self, workspace):
        root, cfg_path = workspace
        from kggan.checkpoint import load_checkpoint
        from kggan.config import load_config
        from kggan.synthdata import DATASET_FIELDS

        config = load_config(cfg_path)
        text = (root / "out" / "dataset" / "descriptions.txt").read_text()
        assert f"config {config_hash(config)}" in text.splitlines()[0]
        _, metadata = load_checkpoint(root / "out" / "dataset" / "dataset.ckpt")
        assert metadata == {
            "kind": "dataset",
            **{f"config.{name}": getattr(config, name) for name in DATASET_FIELDS},
        }


class TestTrainAndEvaluate:
    def test_unknown_cell_exits_2_and_lists_cells(self, workspace):
        root, cfg_path = workspace
        proc = run_cli(["--config", str(cfg_path), "train", "--cell", "bogus"], cwd=root)
        assert proc.returncode == 2
        assert "baseline_full_data" in proc.stderr

    def test_missing_dataset_is_io_error(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY.format(out=tmp_path / "nowhere"))
        proc = run_cli(["--config", str(cfg), "train-embedder"], cwd=tmp_path)
        assert proc.returncode == 5
        dataset = tmp_path / "nowhere" / "dataset" / "dataset.ckpt"
        assert f"i/o error: dataset missing: {dataset} (run generate-data first)" in proc.stderr

    def test_embedder_trains_on_seen_categories_only(self, tmp_path, monkeypatch):
        """The zero-shot split is made once, by ``cli``: ``train-embedder``
        hands ``regressor.train_embedder`` the images of the seen categories
        and of no other."""
        from kggan import cli, regressor
        from kggan.config import load_config

        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY.format(out=tmp_path / "out"))
        assert cli.main(["--config", str(cfg), "generate-data"]) == 0
        received, train_embedder = [], regressor.train_embedder

        def spy(images, category_ids, *rest):
            received.append(category_ids.copy())
            return train_embedder(images, category_ids, *rest)

        monkeypatch.setattr(regressor, "train_embedder", spy)
        assert cli.main(["--config", str(cfg), "train-embedder"]) == 0
        (ids,) = received
        assert set(ids.tolist()) == cli._split(load_config(cfg)).seen_ids

    @pytest.mark.parametrize("cell", ["baseline_full_data", "one_hot_kggan", "kggan_no_se", "kggan_full"])
    def test_train_gets_the_split_and_embedder_its_lambda_needs(self, tmp_path, monkeypatch, cell):
        """``cmd_train`` makes what ``gan.train`` trusts: a split whose sides
        are disjoint and cover the dataset's categories, lambda_se finite
        and >= 0, and, whenever lambda_se > 0, unseen categories and an
        embedder. Only the full-data baseline has no unseen side."""
        from kggan import cli, gan

        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY.format(out=tmp_path / "out"))
        for verb in ("generate-data", "train-embedder"):
            assert cli.main(["--config", str(cfg), verb]) == 0
        received, train = [], gan.train

        def spy(model, dataset, split, cond, embeddings, embedder, config, **kw):
            received.append((split, embedder, config.lambda_se, set(dataset.category_ids.tolist())))
            return train(model, dataset, split, cond, embeddings, embedder, config, **kw)

        monkeypatch.setattr(gan, "train", spy)
        assert cli.main(["--config", str(cfg), "train", "--cell", cell]) == 0
        ((split, embedder, lambda_se, dataset_ids),) = received
        _, full_data, use_knowledge = cli.CELL_RULES[cell]
        assert split.seen_ids & split.unseen_ids == set()
        assert split.seen_ids | split.unseen_ids == dataset_ids == set(range(6))
        assert bool(split.unseen_ids) == (not full_data)
        assert np.isfinite(lambda_se) and (lambda_se > 0.0) == use_knowledge
        assert (embedder is not None) == use_knowledge
        if lambda_se > 0.0:
            assert split.unseen_ids

    def test_train_then_evaluate_cell(self, workspace):
        root, cfg_path = workspace
        proc = run_cli(["--config", str(cfg_path), "train", "--cell", "kggan_full"], cwd=root)
        assert proc.returncode == 0, proc.stderr
        cell_dir = root / "out" / "cells" / "kggan_full"
        assert (cell_dir / "checkpoint.ckpt").exists()
        metrics = (cell_dir / "metrics.csv").read_text().splitlines()
        header = [l for l in metrics if l.startswith("iteration")][0]
        assert header == "iteration,L_D,L_G,L_se_seen,L_se_unseen"
        assert len([l for l in metrics if l and not l.startswith(("#", "iteration"))]) == 40

        proc = run_cli(["--config", str(cfg_path), "evaluate", "--cell", "kggan_full"], cwd=root)
        assert proc.returncode == 0, proc.stderr
        assert (cell_dir / "fid_report.csv").exists()
        assert (cell_dir / "consistency.csv").exists()
        assert (cell_dir / "color_fidelity.csv").exists()
        ppms = sorted((cell_dir / "samples").glob("category_*.ppm"))
        assert len(ppms) == 6

    def test_evaluate_writes_only_its_scores_and_grids(self, trained_cells, tmp_path):
        """evaluate writes a cell's three score CSVs and one sample grid per
        category, and no other file."""
        from kggan import cli

        root, cfg_path = trained_cells
        out, cell = tmp_path / "out", Path("cells") / "kggan_full"
        shutil.copytree(root / "out" / "dataset", out / "dataset")
        shutil.copy(root / "out" / "embedder.ckpt", out)
        (out / cell).mkdir(parents=True)
        shutil.copy(root / "out" / cell / "checkpoint.ckpt", out / cell)
        before = set(out.rglob("*"))
        argv = ["--config", str(cfg_path), "--out", str(out), "evaluate", "--cell", "kggan_full"]
        assert cli.main(argv) == 0
        new = set(out.rglob("*")) - before
        written = sorted(p.relative_to(out).as_posix() for p in new if p.is_file())
        scores = ("fid_report.csv", "consistency.csv", "color_fidelity.csv")
        grids = tuple(f"samples/category_{cid}.ppm" for cid in range(6))
        assert written == sorted(f"cells/kggan_full/{name}" for name in scores + grids)

    def test_one_draw_scores_match_separate_draws(self, trained_cells):
        from kggan import cli, evaluation, gan, regressor, synthdata
        from kggan.autodiff import Tensor, no_grad
        from kggan.config import load_config

        ws = cli.Workspace(load_config(trained_cells[1]))
        report = cli.evaluate_checkpoint(ws, "kggan_full")

        def written(name):
            """A score CSV as evaluate wrote it: float of each value is the value."""
            lines = (Path(ws.cell_dir("kggan_full")) / name).read_text().splitlines()
            rows = [line.split(",") for line in lines if not line.startswith("#")]
            assert rows[0] == ["category_id", "value"]
            return {int(cid): float(value) for cid, value in rows[1:]}

        consistency, color = written("consistency.csv"), written("color_fidelity.csv")
        config = ws.config
        dataset, embeddings = synthdata.load_dataset(ws.dataset_path, config)
        embedder = regressor.load_regressor(ws.embedder_path, config)
        split = cli._split(config)
        model, cond = cli._build_model(config, gan.CONDITION_SEMANTIC, embeddings)
        gan.load_gan(ws.checkpoint_path("kggan_full"), model, config)

        def stats(images):
            return evaluation.feature_stats(regressor.extract_features(embedder, images))

        ids = sorted(split.seen_ids | split.unseen_ids)
        specs_by_id = {s.id: s for s in dataset.specs}
        n = config.n_gen
        assert sorted(report.per_category) == ids
        # references from fresh n-image draws: the FID, a full forward
        # pass, a per-image loop
        for cid in ids:
            images = gan.sample_images(model, cid, n, cond, config.eval_seed)
            reals = dataset.images[dataset.rows_of([cid])]
            assert report.per_category[cid] == evaluation.frechet_distance(stats(images), stats(reals))
            with no_grad():
                pred = embedder.forward(Tensor(images.reshape(n, -1))).data
            target = embeddings[cid]
            assert consistency[cid] == float(np.mean(np.sum((pred - target) ** 2, axis=1)))
            want = int(np.argmax(synthdata.PALETTE[specs_by_id[cid].color]))
            hits = sum(
                1 for img in images if int(np.argmax(synthdata.mean_foreground_color(img))) == want
            )
            assert color[cid] == hits / len(images)

    def test_ppm_files_are_valid_p6(self, evaluated):
        root, _ = evaluated
        ppm = sorted((root / "out" / "cells" / "kggan_full" / "samples").glob("*.ppm"))[0]
        blob = ppm.read_bytes()
        assert blob.startswith(b"P6\n")
        # header: magic, comment, dimensions, maxval, then exactly w*h*3 bytes
        parts = blob.split(b"\n", 4)
        width, height = map(int, parts[2].split())
        assert parts[3] == b"255"
        assert len(parts[4]) == width * height * 3

    def test_evaluate_missing_checkpoint_is_io_error(self, workspace):
        root, cfg_path = workspace
        proc = run_cli(["--config", str(cfg_path), "evaluate", "--cell", "kggan_no_se"], cwd=root)
        assert proc.returncode == 5

    def test_fid_report_averages_recompute(self, evaluated):
        root, _ = evaluated
        lines = (root / "out" / "cells" / "kggan_full" / "fid_report.csv").read_text().splitlines()
        rows = [l.split(",") for l in lines if l and not l.startswith("#")]
        per, avgs = {}, {}
        for row in rows[1:]:
            if row[0] in ("seen_avg", "unseen_avg"):
                avgs[row[0]] = float(row[1])
            elif row[0] != "category_id":
                per[int(row[0])] = (float(row[1]), row[2])
        seen = [v for v, part in per.values() if part == "seen"]
        unseen = [v for v, part in per.values() if part == "unseen"]
        assert abs(avgs["seen_avg"] - np.mean(seen)) < 1e-12
        assert abs(avgs["unseen_avg"] - np.mean(unseen)) < 1e-12


def rewrite_checkpoint(path, damage):
    """Apply ``damage`` to a checkpoint file's state and write it back whole,
    so its digest is valid and only the damaged content is wrong."""
    from kggan.checkpoint import load_checkpoint, save_checkpoint

    state, metadata = load_checkpoint(path)
    state = {name: np.array(arr) for name, arr in state.items()}
    damage(state)
    save_checkpoint(path, state, metadata)


def widen_embedder(path):
    """Rewrite an embedder file as one from before the regressor trained in
    float32: the same names and metadata, every array float64."""

    def widen(state):
        assert {a.dtype for a in state.values()} == {np.dtype(np.float32)}
        state.update({name: a.astype(np.float64) for name, a in state.items()})

    rewrite_checkpoint(path, widen)


class TestEmbeddingsFile:
    """The category table is the dataset file's ``embeddings`` tensor."""

    @pytest.mark.parametrize("damage", ["nan"])
    def test_damaged_embeddings_exit_3_naming_file_and_category(self, tmp_path, damage):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY.format(out=tmp_path / "out"))
        assert run_cli(["--config", str(cfg), "generate-data"], cwd=tmp_path).returncode == 0
        path = tmp_path / "out" / "dataset" / "dataset.ckpt"

        def poison(state):
            state["embeddings"][4, -1] = np.nan

        rewrite_checkpoint(path, poison)
        proc = run_cli(["--config", str(cfg), "train-embedder"], cwd=tmp_path)
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"contract violation: {path}: tensor embeddings row 4 holds a non-finite value" in proc.stderr

    @staticmethod
    def _damage_table(path, damage):
        """Damage the table of 6 categories x 16 values; returns what is named."""

        def table(state):
            rows = list(state["embeddings"])
            if damage == "missing_row":
                del rows[4]
            elif damage == "repeated_row":
                rows.insert(4, rows[4])
            elif damage == "extra_row":
                rows.append(rows[4])
            else:
                rows = [row[:-1] for row in rows]
            state["embeddings"] = np.stack(rows)

        rewrite_checkpoint(path, table)
        shape = {
            "missing_row": (5, 16), "repeated_row": (7, 16), "extra_row": (7, 16), "short_rows": (6, 15)
        }[damage]
        return f"tensor embeddings has shape {shape}, expected (6, 16)"

    @pytest.mark.parametrize(
        "verb",
        [["train-embedder"], ["train", "--cell", "kggan_full"], ["evaluate", "--cell", "kggan_full"]],
        ids=["train-embedder", "train", "evaluate"],
    )
    @pytest.mark.parametrize("damage", ["missing_row", "repeated_row", "extra_row", "short_rows"])
    def test_damaged_table_exits_3_naming_file(self, trained_cells, tmp_path, damage, verb):
        # a copy of a workspace with an embedder and trained cells, so every
        # verb gets past its other inputs to the table
        shutil.copytree(trained_cells[0] / "out", tmp_path / "out")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY.format(out=tmp_path / "out"))
        path = tmp_path / "out" / "dataset" / "dataset.ckpt"
        named = self._damage_table(path, damage)
        before = sorted(tmp_path.rglob("*"))
        proc = run_cli(["--config", str(cfg), *verb], cwd=tmp_path)
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"contract violation: {path}: {named}" in proc.stderr
        assert sorted(tmp_path.rglob("*")) == before


class TestResume:
    def test_resumed_training_reproduces_metric_log(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY.format(out=tmp_path / "out"))
        for cmd in (["generate-data"], ["train-embedder"], ["train", "--cell", "kggan_full"]):
            proc = run_cli(["--config", str(cfg_path), *cmd], cwd=tmp_path)
            assert proc.returncode == 0, proc.stderr
        metrics = tmp_path / "out" / "cells" / "kggan_full" / "metrics.csv"
        full_log = metrics.read_bytes()

        # a half-length run in the same out_dir, resumed to completion,
        # writes the uninterrupted run's log byte for byte: its rows 0..19
        # kept verbatim under the resumed run's header, then rows 20..39
        half_cfg = tmp_path / "half.cfg"
        half_cfg.write_text(cfg_path.read_text().replace("gan_iterations = 40", "gan_iterations = 20"))
        proc = run_cli(["--config", str(half_cfg), "train", "--cell", "kggan_full"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert len(metrics.read_text().splitlines()) == len(full_log.splitlines()) - 20
        resume = metrics.parent / "checkpoint.ckpt"
        argv = ["--config", str(cfg_path), "train", "--cell", "kggan_full", "--resume", str(resume)]
        proc = run_cli(argv, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert metrics.read_bytes() == full_log

    @pytest.mark.parametrize("stop", ["interrupted", "aborted"])
    def test_resume_reads_only_the_checkpoint(self, tmp_path, monkeypatch, stop):
        """With every metric CSV deleted, a resume from a half-length run's
        checkpoint.ckpt, or from the checkpoint.aborted.ckpt of a run that
        aborted at iteration 30, writes the uninterrupted run's metrics.csv
        and checkpoint.ckpt byte for byte: the log comes from the checkpoint."""
        from kggan import cli, gan, optim

        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY.format(out=tmp_path / "out"))
        for cmd in (["generate-data"], ["train-embedder"], ["train", "--cell", "kggan_full"]):
            assert cli.main(["--config", str(cfg), *cmd]) == 0
        cell_dir = tmp_path / "out" / "cells" / "kggan_full"
        finished = {name: (cell_dir / name).read_bytes() for name in ("checkpoint.ckpt", "metrics.csv")}

        if stop == "interrupted":
            half = tmp_path / "half.cfg"
            half.write_text(cfg.read_text().replace("gan_iterations = 40", "gan_iterations = 20"))
            assert cli.main(["--config", str(half), "train", "--cell", "kggan_full"]) == 0
            resume, logs = cell_dir / "checkpoint.ckpt", ["metrics.csv"]
        else:
            g_steps = []

            def poisoned(params, state, grads, t):
                if params[0].name == "G.w1":  # a G step
                    g_steps.append(params[0].name)
                    if len(g_steps) == 31:  # iteration 30's
                        grads[0][0, 0] = np.nan
                return optim.adam_step(params, state, grads, t)

            with monkeypatch.context() as patch:
                patch.setattr(gan, "adam_step", poisoned)
                assert cli.main(["--config", str(cfg), "train", "--cell", "kggan_full"]) == 4
            resume, logs = cell_dir / "checkpoint.aborted.ckpt", ["metrics.aborted.csv", "metrics.csv"]
        assert sorted(p.name for p in cell_dir.glob("metrics*.csv")) == logs
        for name in logs:
            (cell_dir / name).unlink()

        argv = ["--config", str(cfg), "train", "--cell", "kggan_full", "--resume", str(resume)]
        assert cli.main(argv) == 0
        assert {name: (cell_dir / name).read_bytes() for name in finished} == finished

    def test_checkpoint_that_also_stores_its_iteration_resumes_and_scores(self, tmp_path):
        """A checkpoint as written when the metadata also held the iteration
        (the log's length, after the condition mode) still works: resumed
        from a half-length run's, ``train`` writes the uninterrupted run's
        metrics.csv and checkpoint.ckpt byte for byte, and ``evaluate``
        of the finished run's writes the same fid_report.csv."""
        from kggan import cli
        from kggan.checkpoint import load_checkpoint, save_checkpoint

        def with_iteration(path):
            state, metadata = load_checkpoint(path)
            assert "iteration" not in metadata
            head = {"kind": "gan", "condition_mode": metadata["condition_mode"]}
            stored = {**head, "iteration": len(metadata["log"]), **metadata}
            assert list(stored)[:4] == ["kind", "condition_mode", "iteration", "log"]
            target = tmp_path / f"{len(metadata['log'])}_with_iteration.ckpt"
            save_checkpoint(target, state, stored)
            return target

        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY.format(out=tmp_path / "out"))
        for cmd in (["generate-data"], ["train-embedder"], ["train", "--cell", "kggan_full"]):
            assert cli.main(["--config", str(cfg), *cmd]) == 0
        assert cli.main(["--config", str(cfg), "evaluate", "--cell", "kggan_full"]) == 0
        cell_dir = tmp_path / "out" / "cells" / "kggan_full"
        names = ("checkpoint.ckpt", "metrics.csv", "fid_report.csv")
        finished = {name: (cell_dir / name).read_bytes() for name in names}

        full = with_iteration(cell_dir / "checkpoint.ckpt")
        (cell_dir / "fid_report.csv").unlink()
        argv = ["--config", str(cfg), "evaluate", "--cell", "kggan_full", "--checkpoint", str(full)]
        assert cli.main(argv) == 0
        assert (cell_dir / "fid_report.csv").read_bytes() == finished["fid_report.csv"]

        half = tmp_path / "half.cfg"
        half.write_text(cfg.read_text().replace("gan_iterations = 40", "gan_iterations = 20"))
        assert cli.main(["--config", str(half), "train", "--cell", "kggan_full"]) == 0
        resume = with_iteration(cell_dir / "checkpoint.ckpt")
        argv = ["--config", str(cfg), "train", "--cell", "kggan_full", "--resume", str(resume)]
        assert cli.main(argv) == 0
        assert {name: (cell_dir / name).read_bytes() for name in names} == finished


@pytest.fixture(scope="module")
def trained_cells(workspace):
    """The workspace with three cells trained in process."""
    from kggan import cli

    root, cfg_path = workspace
    for cell in ("baseline_full_data", "one_hot_kggan", "kggan_full"):
        assert cli.main(["--config", str(cfg_path), "train", "--cell", cell]) == 0
    return root, cfg_path


@pytest.fixture(scope="module")
def evaluated(trained_cells):
    """The trained workspace with kggan_full evaluated in process."""
    from kggan import cli

    root, cfg_path = trained_cells
    assert cli.main(["--config", str(cfg_path), "evaluate", "--cell", "kggan_full"]) == 0
    return root, cfg_path


class TestResumeChecks:
    @pytest.mark.parametrize(
        "cell, source, settings, field",
        [
            ("baseline_full_data", "one_hot_kggan", "", "cell"),
            ("kggan_full", "kggan_full", "lambda_se = 0.2\n", "lambda_se"),
            ("kggan_full", "kggan_full", "embedder_batch = 16\n", "config.embedder_batch"),
            ("kggan_full", "baseline_full_data", "", "condition_mode"),
        ],
        ids=["another_cell", "lambda_se", "config_field", "condition_mode"],
    )
    def test_checkpoint_of_another_run_exits_3_naming_the_field(
        self, trained_cells, tmp_path, cell, source, settings, field
    ):
        root, cfg_path = trained_cells
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(cfg_path.read_text() + settings)
        metrics = root / "out" / "cells" / cell / "metrics.csv"
        before = metrics.read_bytes()
        resume = root / "out" / "cells" / source / "checkpoint.ckpt"
        proc = run_cli(
            ["--config", str(cfg), "train", "--cell", cell, "--resume", str(resume)], cwd=tmp_path
        )
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"contract violation: {resume}: checkpoint has {field} " in proc.stderr
        assert metrics.read_bytes() == before

    @pytest.mark.parametrize("iterations", [40, 20], ids=["at_the_end", "past_the_end"])
    def test_checkpoint_at_or_past_the_end_exits_3_naming_both_numbers(
        self, trained_cells, tmp_path, iterations
    ):
        root, cfg_path = trained_cells
        cfg = tmp_path / "exp.cfg"
        text = cfg_path.read_text()
        cfg.write_text(text.replace("gan_iterations = 40", f"gan_iterations = {iterations}"))
        cell_dir = root / "out" / "cells" / "kggan_full"
        before = {p: p.read_bytes() for p in cell_dir.rglob("*") if p.is_file()}
        resume = cell_dir / "checkpoint.ckpt"
        proc = run_cli(
            ["--config", str(cfg), "train", "--cell", "kggan_full", "--resume", str(resume)],
            cwd=tmp_path,
        )
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert (
            f"contract violation: {resume}: checkpoint has iteration 40, at or past this run's "
            f"gan_iterations {iterations}" in proc.stderr
        )
        assert {p: p.read_bytes() for p in cell_dir.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize(
        "damage, verb, named",
        [
            ("older_layout", "train", "unexpected tensor adam_d.step"),
            ("older_layout", "evaluate", "unexpected tensor adam_d.step"),
            ("log_missing", "train", "checkpoint has log None, expected a list"),
            ("log_missing", "evaluate", "checkpoint has log None, expected a list"),
            ("log_misnumbered", "train", "checkpoint has log row 3 [4, "),
            ("log_misnumbered", "evaluate", "checkpoint has log row 3 [4, "),
            ("log_non_finite", "train", "checkpoint has log row 5 [5, "),
            ("log_non_finite", "evaluate", "checkpoint has log row 5 [5, "),
            ("log_int_loss", "train", "checkpoint has log row 7 [7, 1, "),
        ],
        ids=[
            "older_layout_train",
            "older_layout_evaluate",
            "log_missing_train",
            "log_missing_evaluate",
            "log_misnumbered_train",
            "log_misnumbered_evaluate",
            "log_non_finite_train",
            "log_non_finite_evaluate",
            "log_int_loss_train",
        ],
    )
    def test_checkpoint_iteration_or_layout_exits_3_naming_it(
        self, trained_cells, tmp_path, damage, verb, named
    ):
        """A file that still stores derived state (the iteration, the Adam
        step counts, the condition transform) is refused naming the first
        such tensor. The metadata's log must be a list of the rows of
        iterations 0, 1, ... as ``train`` logs them, each an int and four
        finite floats; a file written before checkpoints carried their log
        has none. The config would resume the file for 20 more iterations."""
        from kggan.checkpoint import load_checkpoint, save_checkpoint

        root, cfg_path = trained_cells
        cell_dir = root / "out" / "cells" / "kggan_full"
        state, metadata = load_checkpoint(cell_dir / "checkpoint.ckpt")
        if damage == "older_layout":
            state.update({name: np.asarray(40.0) for name in ("adam_g.step", "adam_d.step", "iteration")})
            state.update({"cond.transform": np.eye(16), "cond.shift": np.zeros(16)})
        elif damage == "log_missing":
            del metadata["log"]
        elif damage == "log_misnumbered":
            metadata["log"][3][0] = 4
        elif damage == "log_non_finite":
            metadata["log"][5][2] = {"train": np.nan, "evaluate": np.inf}[verb]
        elif damage == "log_int_loss":  # the value 1.0, but not as train logs it
            metadata["log"][7][1] = 1
        path = tmp_path / "checkpoint.ckpt"
        save_checkpoint(path, state, metadata)
        before = {p: p.read_bytes() for p in cell_dir.rglob("*") if p.is_file()}
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(cfg_path.read_text().replace("gan_iterations = 40", "gan_iterations = 60"))
        flag = {"train": "--resume", "evaluate": "--checkpoint"}[verb]
        argv = ["--config", str(cfg), verb, "--cell", "kggan_full", flag, str(path)]
        proc = run_cli(argv, cwd=tmp_path)
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"contract violation: {path}: {named}" in proc.stderr
        assert {p: p.read_bytes() for p in cell_dir.rglob("*") if p.is_file()} == before

    @staticmethod
    def _refused_without_writes(trained_cells, tmp_path, verb, damage):
        """Save the kggan_full checkpoint's state and metadata, changed by
        ``damage(state)``, through ``gan.save_gan`` and pass the file to
        ``verb``, under a config that would resume it for 20 more
        iterations: it exits 3 without a traceback or a RuntimeWarning, and
        no file is written or replaced. Returns (the file's path, stderr)."""
        from kggan import gan
        from kggan.checkpoint import load_checkpoint

        root, cfg_path = trained_cells
        cell_dir = root / "out" / "cells" / "kggan_full"
        state, metadata = load_checkpoint(cell_dir / "checkpoint.ckpt")
        state = damage(state)
        run = {k: v for k, v in metadata.items() if k not in ("kind", "condition_mode", "log")}
        path = tmp_path / "checkpoint.ckpt"
        gan.save_gan(path, state, metadata["condition_mode"], run, metadata["log"])
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(cfg_path.read_text().replace("gan_iterations = 40", "gan_iterations = 60"))

        def files():
            found = sorted(p for d in (root / "out", tmp_path) for p in d.rglob("*") if p.is_file())
            return {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in found}

        before = files()
        flag = {"train": "--resume", "evaluate": "--checkpoint"}[verb]
        proc = run_cli(["--config", str(cfg), verb, "--cell", "kggan_full", flag, str(path)], cwd=tmp_path)
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
        assert files() == before
        return path, proc.stderr

    @pytest.mark.parametrize("verb", ["train", "evaluate"])
    def test_checkpoint_with_first_moments_exits_3_naming_one(self, trained_cells, tmp_path, verb):
        """A file from when the GAN's Adam stored a first moment (today's
        state plus the 13 adam_*.m.<param> arrays, saved through
        ``gan.save_gan``) is refused naming one of them; nothing is written
        or replaced and no traceback is printed."""

        def add_first_moments(state):
            params = [name for name in state if name[:2] in ("G.", "D.")]
            assert len(params) == 13
            for name in params:
                state[f"adam_{name[0].lower()}.m.{name}"] = np.full_like(state[name], 1e-3)
            return state

        path, stderr = self._refused_without_writes(trained_cells, tmp_path, verb, add_first_moments)
        named = rf"contract violation: {re.escape(str(path))}: unexpected tensor adam_[dg]\.m\."
        assert re.search(named, stderr)

    @pytest.mark.parametrize("verb", ["train", "evaluate"])
    def test_float64_checkpoint_exits_3_naming_the_first_tensor(self, trained_cells, tmp_path, verb):
        """A file from before the GAN trained in float32 (today's names and
        metadata, every array float64, saved through ``gan.save_gan``) is
        refused naming G.w1 and both dtypes; nothing is written or
        replaced and no traceback is printed."""

        def widen(state):
            assert {a.dtype for a in state.values()} == {np.dtype(np.float32)}
            return {name: a.astype(np.float64) for name, a in state.items()}

        path, stderr = self._refused_without_writes(trained_cells, tmp_path, verb, widen)
        assert f"contract violation: {path}: tensor G.w1 has dtype float64, expected float32" in stderr

    @pytest.mark.parametrize("verb", ["train", "evaluate"])
    @pytest.mark.parametrize(
        "name, stored, named",
        [
            ("D.v_proj", None, "tensor D.v_proj is missing"),
            ("adam_d.v.D.w2", np.zeros(3, np.float32), "tensor adam_d.v.D.w2 has shape (3,), expected (24, 12)"),
            ("spectral.D.w1.u", None, "tensor spectral.D.w1.u is missing"),
            ("G.w3", (5, np.nan), "tensor G.w3 row 5 holds a non-finite value"),
            ("D.w1", (100, np.inf), "tensor D.w1 row 100 holds a non-finite value"),
        ],
        ids=["discriminator_weight", "second_moment_shape", "spectral_vector", "nan_in_g_w3", "inf_in_d_w1"],
    )
    def test_damaged_half_evaluate_does_not_read_exits_3_naming_it(
        self, trained_cells, tmp_path, verb, name, stored, named
    ):
        """The file is verified whole, also where evaluate samples from the
        generator alone: a missing D weight or spectral vector, or a second
        moment of the wrong shape, is refused naming the tensor, and a NaN
        or an infinity in either network naming the tensor and its row;
        nothing is written or replaced, and no traceback or RuntimeWarning
        is printed."""

        def damage(state):
            if stored is None:
                del state[name]
            elif isinstance(stored, tuple):  # (row, value): the row's last entry
                row, value = stored
                state[name][row, -1] = value
            else:
                state[name] = stored
            return state

        path, stderr = self._refused_without_writes(trained_cells, tmp_path, verb, damage)
        assert f"contract violation: {path}: {named}" in stderr

    @pytest.mark.parametrize(
        "verb, damage",
        [
            (["train", "--cell", "kggan_full"], "other_config"),
            (["evaluate", "--cell", "kggan_full"], "other_config"),
            (["train", "--cell", "kggan_full"], "nan_weight"),
            (["evaluate", "--cell", "kggan_full"], "nan_weight"),
            (["train", "--cell", "kggan_full"], "float64"),
            (["evaluate", "--cell", "kggan_full"], "float64"),
        ],
        ids=["train", "evaluate", "train_nan_weight", "evaluate_nan_weight", "train_float64", "evaluate_float64"],
    )
    def test_embedder_of_another_config_exits_3_naming_the_field(self, trained_cells, tmp_path, verb, damage):
        """An embedder trained under another config is refused naming the
        first field that differs, one with a NaN weight naming the tensor
        and its row, and one from before the regressor trained in float32
        (today's names and metadata, every array float64) naming E.w1 and
        both dtypes; nothing is written and no traceback or RuntimeWarning
        is printed."""
        shutil.copytree(trained_cells[0] / "out", tmp_path / "out")
        text = TINY.format(out=tmp_path / "out")
        embedder = tmp_path / "out" / "embedder.ckpt"
        if damage == "other_config":
            text = text.replace("embedder_steps = 120", "embedder_steps = 121")
            named = "checkpoint has config.embedder_steps 120, this run has 121"
        elif damage == "float64":
            widen_embedder(embedder)
            named = "tensor E.w1 has dtype float64, expected float32"
        else:

            def poison(state):
                state["E.w2"][9, 3] = np.nan

            rewrite_checkpoint(embedder, poison)
            named = "tensor E.w2 row 9 holds a non-finite value"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        before = {p: p.read_bytes() for p in (tmp_path / "out").rglob("*") if p.is_file()}
        proc = run_cli(["--config", str(cfg), *verb], cwd=tmp_path)
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
        assert f"contract violation: {embedder}: {named}" in proc.stderr
        assert {p: p.read_bytes() for p in (tmp_path / "out").rglob("*") if p.is_file()} == before

    def test_train_embedder_writes_a_float64_embedder_anew(self, trained_cells, tmp_path):
        """``train-embedder`` over a float64 embedder file writes the
        float32 file the workspace's own ``train-embedder`` wrote."""
        shutil.copytree(trained_cells[0] / "out", tmp_path / "out")
        embedder = tmp_path / "out" / "embedder.ckpt"
        written = embedder.read_bytes()
        widen_embedder(embedder)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY.format(out=tmp_path / "out"))
        proc = run_cli(["--config", str(cfg), "train-embedder"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert embedder.read_bytes() == written

    def test_evaluate_of_another_cells_checkpoint_exits_3_naming_cell(self, trained_cells):
        root, cfg_path = trained_cells
        cell_dir = root / "out" / "cells" / "baseline_full_data"
        before = {p: p.read_bytes() for p in cell_dir.rglob("*") if p.is_file()}
        other = root / "out" / "cells" / "one_hot_kggan" / "checkpoint.ckpt"
        argv = ["--config", str(cfg_path), "evaluate", "--cell", "baseline_full_data"]
        proc = run_cli([*argv, "--checkpoint", str(other)], cwd=root)
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert (
            f"contract violation: {other}: checkpoint has cell 'one_hot_kggan', "
            "this run has 'baseline_full_data'" in proc.stderr
        )
        assert {p: p.read_bytes() for p in cell_dir.rglob("*") if p.is_file()} == before

    def test_evaluate_of_a_checkpoint_trained_on_other_data_exits_3(self, trained_cells, tmp_path):
        """kggan_full trained at the default data_seed; the dataset and the
        embedder then made anew at data_seed 7. Both of those load, so the
        checkpoint's own record of the data it was trained on must refuse it."""
        from kggan import cli

        root, _ = trained_cells
        shutil.copytree(root / "out", tmp_path / "out")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY.format(out=tmp_path / "out") + "data_seed = 7\n")
        for verb in (["generate-data"], ["train-embedder"]):
            assert cli.main(["--config", str(cfg), *verb]) == 0, verb
        before = {p: p.read_bytes() for p in (tmp_path / "out").rglob("*") if p.is_file()}
        proc = run_cli(["--config", str(cfg), "evaluate", "--cell", "kggan_full"], cwd=tmp_path)
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        checkpoint = tmp_path / "out" / "cells" / "kggan_full" / "checkpoint.ckpt"
        assert (
            f"contract violation: {checkpoint}: checkpoint has config.data_seed 101, "
            "this run has 7" in proc.stderr
        )
        assert {p: p.read_bytes() for p in (tmp_path / "out").rglob("*") if p.is_file()} == before


GOLDEN = Path(__file__).parent / "golden"


class TestTrainingGolden:
    @pytest.mark.parametrize("cell", ["kggan_full", "baseline_full_data"])
    def test_metric_log_matches_golden(self, trained_cells, cell):
        """The TINY config's metric log for a cell trained through the CLI
        from the dataset file, on the lambda_se = 0.1 and the lambda_se = 0
        path, recorded in the golden files when each step came to run one
        pass per network over stacked rows (the same at 1 and 2 BLAS
        threads): every row must be reproduced bit for bit."""
        root, _ = trained_cells
        lines = (root / "out" / "cells" / cell / "metrics.csv").read_text(encoding="utf-8")
        rows = "".join(line for line in lines.splitlines(keepends=True) if not line.startswith("#"))
        assert rows == (GOLDEN / f"tiny_{cell}_metrics.csv").read_text(encoding="utf-8")


class TestEvaluationGolden:
    def test_kggan_full_scores_match_golden(self, trained_cells):
        """The TINY config's kggan_full scores: data, embedder, GAN training
        and evaluation must reproduce every row bit for bit. The FID report
        and the consistency scores were recorded when each training step
        came to run one pass per network over stacked rows; the color
        fidelities, which that and the move to float32 left unchanged,
        before the dataset moved into one checkpoint file."""
        from kggan import cli

        root, cfg_path = trained_cells
        assert cli.main(["--config", str(cfg_path), "evaluate", "--cell", "kggan_full"]) == 0
        cell_dir = root / "out" / "cells" / "kggan_full"
        for name in ("fid_report.csv", "consistency.csv", "color_fidelity.csv"):
            lines = (cell_dir / name).read_text(encoding="utf-8").splitlines(keepends=True)
            rows = "".join(line for line in lines if not line.startswith("#"))
            assert rows == (GOLDEN / f"tiny_kggan_full_{name}").read_text(encoding="utf-8"), name


class TestDatasetGolden:
    """The TINY config's dataset, recorded in the golden files before the
    category recipes held their attributes as words. Header lines carry
    the config hash, which changes with every other config field, so the
    descriptions are pinned from the first ``#category`` line; the
    dataset file by the blake2b of each tensor's bytes."""

    def test_descriptions_match_golden(self, workspace):
        root, _ = workspace
        text = (root / "out" / "dataset" / "descriptions.txt").read_text(encoding="utf-8")
        body = "".join(line for line in text.splitlines(keepends=True) if not line.startswith("# "))
        assert body == (GOLDEN / "tiny_dataset_descriptions.txt").read_text(encoding="utf-8")

    def test_dataset_tensors_match_golden(self, workspace):
        from kggan.checkpoint import load_checkpoint

        root, _ = workspace
        state, _ = load_checkpoint(root / "out" / "dataset" / "dataset.ckpt")
        digests = "".join(
            f"{name} {hashlib.blake2b(state[name].tobytes()).hexdigest()}\n"
            for name in ("images", "embeddings")
        )
        assert digests == (GOLDEN / "tiny_dataset.blake2b").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def ablated(tmp_path_factory):
    """The TINY config's ``ablate`` output directory."""
    from kggan import cli

    root = tmp_path_factory.mktemp("ablate")
    cfg = root / "exp.cfg"
    cfg.write_text(TINY.format(out=root / "out"))
    assert cli.main(["--config", str(cfg), "ablate"]) == 0
    return root / "out"


class TestAblationGolden:
    """The TINY config's ``ablate`` tables and kggan_full sample grids.
    The CSV table was recorded when each training step came to run one
    pass per network over stacked rows; the text table (FIDs to 4
    decimals) and the sample pixels, which that and the move to float32
    left unchanged, before the table writers were merged.
    Header lines carry the config hash, which changes with every other
    config field, so only the lines below them and the pixels after the
    PPM header are pinned."""

    @pytest.mark.parametrize("name", ["combined.csv", "combined.txt"])
    def test_combined_report_matches_golden(self, ablated, name):
        lines = (ablated / "ablation" / name).read_text(encoding="utf-8").splitlines(keepends=True)
        body = "".join(line for line in lines if not line.startswith("#"))
        assert body == (GOLDEN / f"tiny_ablation_{name}").read_text(encoding="utf-8")

    def test_kggan_full_sample_pixels_match_golden(self, ablated):
        digests = []
        for ppm in sorted((ablated / "cells" / "kggan_full" / "samples").glob("*.ppm")):
            magic, _comment, size, maxval, pixels = ppm.read_bytes().split(b"\n", 4)
            assert (magic, maxval) == (b"P6", b"255")
            digests.append(f"{ppm.name} {hashlib.blake2b(pixels).hexdigest()}\n")
        assert "".join(digests) == (GOLDEN / "tiny_kggan_full_samples.blake2b").read_text(encoding="utf-8")

    def test_output_directory_changes_only_config_cfg(self, ablated, tmp_path):
        """Where a run writes is in no header and no checkpoint: the same
        ablate written elsewhere differs only in config.cfg's out_dir line."""
        from kggan import cli

        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY.format(out=tmp_path / "out"))
        assert cli.main(["--config", str(cfg), "ablate"]) == 0

        def files(root):
            return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

        first, second = files(ablated), files(tmp_path / "out")
        assert sorted(first) == sorted(second)
        differ = [name for name in first if first[name] != second[name]]
        assert differ == [Path("config.cfg")]
        changed = set(first[differ[0]].decode().splitlines()) ^ set(second[differ[0]].decode().splitlines())
        assert changed == {f"out_dir = {ablated}", f"out_dir = {tmp_path / 'out'}"}


class TestVerdicts:
    @pytest.mark.parametrize(
        "one_hot, no_se, ok",
        [
            (1100.0, 1057.4659, "FAILS"),
            (1057.4659, 1100.0, "FAILS"),
            (1100.0, 1057.46591, "holds"),
            (1100.0, 1057.0, "FAILS"),
        ],
        ids=["tie_with_no_se", "tie_with_one_hot", "strictly_best", "beaten"],
    )
    def test_full_method_best_holds_only_strictly_below_both(self, one_hot, no_se, ok):
        """On stub reports: kggan_full at 1057.4659 unseen is best only when
        both other knowledge cells score strictly more; a tie is no win,
        as the two pairwise verdicts' strict ``<`` has it."""
        from kggan import cli
        from kggan.evaluation import FidReport

        unseen = {"kggan_full": 1057.4659, "one_hot_kggan": one_hot, "kggan_no_se": no_se}
        results = {cell: FidReport(per_category={}, seen_avg=0.0, unseen_avg=v) for cell, v in unseen.items()}
        lines = cli._verdict_lines(results)
        assert lines[-1] == f"verdict: full method best among knowledge cells (unseen) -> {ok}"


class TestBenchmarkChecks:
    def test_checkpoint_check_loads_what_train_writes(self, trained_cells):
        """The benchmark's checkpoint check runs against the package as it
        is, so a change that breaks it fails here, not as failed
        benchmark operations."""
        import importlib.util

        from kggan.config import load_config
        from kggan.gan import CONDITION_ONE_HOT, CONDITION_SEMANTIC

        path = os.path.join(os.path.dirname(SRC), "perfbench", "checks.py")
        spec = importlib.util.spec_from_file_location("perfbench_checks", path)
        checks = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(checks)

        root, cfg_path = trained_cells
        config = load_config(cfg_path)
        one_hot = root / "out" / "cells" / "one_hot_kggan" / "checkpoint.ckpt"
        semantic = root / "out" / "cells" / "kggan_full" / "checkpoint.ckpt"
        checks.checkpoint_iteration(one_hot, config, CONDITION_ONE_HOT, 40)
        checks.checkpoint_iteration(semantic, config, CONDITION_SEMANTIC, 40)
        with pytest.raises(checks.CheckFailed, match="iteration 40, expected 39"):
            checks.checkpoint_iteration(semantic, config, CONDITION_SEMANTIC, 39)


class TestCheckpointLayout:
    def test_gan_checkpoint_holds_30_tensors_and_no_first_moment(self, trained_cells):
        """A GAN checkpoint holds the 13 parameters, the 4 spectral vectors
        and the 13 second moments, nothing more: at beta1 = 0 Adam
        allocates no first moment. The whole-state load the benchmark's
        checkpoint check makes restores it at its iteration."""
        from kggan import gan
        from kggan.checkpoint import load_checkpoint
        from kggan.config import load_config
        from kggan.optim import AdamState

        root, cfg_path = trained_cells
        path = root / "out" / "cells" / "kggan_full" / "checkpoint.ckpt"
        state, metadata = load_checkpoint(path)
        g = ["G.w1", "G.b1", "G.w2", "G.b2", "G.w3", "G.b3"]
        d = ["D.w1", "D.b1", "D.w2", "D.b2", "D.psi_w", "D.psi_b", "D.v_proj"]
        spectral = [f"spectral.{name}.u" for name in ("D.w1", "D.w2", "D.psi_w", "D.v_proj")]
        moments = [f"adam_g.v.{name}" for name in g] + [f"adam_d.v.{name}" for name in d]
        assert len(state) == 30
        assert sorted(state) == sorted(g + d + spectral + moments)

        config = load_config(cfg_path)
        model = gan.GanModel(
            image_size=config.image_size,
            cond_dim=config.embed_dim,
            condition_mode=gan.CONDITION_SEMANTIC,
            rng=np.random.default_rng(0),
            z_dim=config.z_dim,
            g_hidden=config.g_hidden,
            d_hidden=config.d_hidden,
            feat_dim=config.feat_dim,
        )
        for params in (model.generator_params(), model.discriminator_params()):
            adam = {"learning_rate": 2e-4, "beta2": 0.9}
            assert AdamState.for_params(params, beta1=0.0, **adam).first_moment == []
            assert len(AdamState.for_params(params, beta1=0.9, **adam).first_moment) == len(params)

        # the call perfbench/checks.py makes; the model is loaded in place
        _, opt_g, opt_d, iteration = gan.load_gan(path, model, gan.TrainConfig())
        assert iteration == len(metadata["log"]) == 40 and "iteration" not in metadata
        assert opt_g.first_moment == [] and opt_d.first_moment == []
        loaded = gan.gan_state(model, opt_g, opt_d)
        assert list(loaded) == list(state)
        for name, arr in state.items():
            assert loaded[name].tobytes() == arr.tobytes(), name


class TestEvaluateLoad:
    def test_evaluate_whitens_once_and_restores_through_load_gan_once(self, trained_cells, monkeypatch):
        """evaluate whitens the dataset's table once, as training did, and
        restores the checkpoint through the one loader, ``gan.load_gan``, once."""
        from kggan import cli, gan

        _, cfg_path = trained_cells
        calls = []

        def spy(name):
            original = getattr(gan, name)
            return lambda *a, **k: calls.append(name) or original(*a, **k)

        for name in ("condition_preconditioner", "load_gan"):
            monkeypatch.setattr(gan, name, spy(name))
        assert cli.main(["--config", str(cfg_path), "evaluate", "--cell", "kggan_full"]) == 0
        assert calls == ["condition_preconditioner", "load_gan"]

    def test_evaluate_draws_each_category_once(self, trained_cells, monkeypatch):
        """One draw per category, long enough for both the metrics and the
        grid; the grid is its head. Two trunk passes per category: its
        n_gen fakes, then its real images."""
        from kggan import cli, gan, regressor, synthdata
        from kggan.config import load_config

        root, cfg_path = trained_cells
        config = load_config(cfg_path)
        calls, sample_images = [], gan.sample_images
        passes, extract_features = [], regressor.extract_features

        def spy(model, cid, n, cond, seed):
            calls.append((cid, n))
            return sample_images(model, cid, n, cond, seed)

        def spy_features(model, images):
            passes.append(images)
            return extract_features(model, images)

        monkeypatch.setattr(gan, "sample_images", spy)
        monkeypatch.setattr(regressor, "extract_features", spy_features)
        assert cli.main(["--config", str(cfg_path), "evaluate", "--cell", "kggan_full"]) == 0
        n = max(config.n_gen, cli.GRID_COLUMNS * config.grid_rows)
        assert calls == [(cid, n) for cid in range(config.n_categories)]
        dataset, _ = synthdata.load_dataset(cli.Workspace(config).dataset_path, config)
        assert len(passes) == 2 * config.n_categories
        for cid in range(config.n_categories):
            fakes, reals = passes[2 * cid], passes[2 * cid + 1]
            assert fakes.shape == (config.n_gen, 3, config.image_size, config.image_size)
            assert np.array_equal(reals, dataset.images[dataset.rows_of([cid])])


class TestUnreadableInput:
    @staticmethod
    def _damage(tmp_path, cfg, damage):
        """Damage one input file; returns the exit code and the message expected."""
        dataset = tmp_path / "out" / "dataset"
        if damage == "config_repeated_key":
            cfg.write_text(cfg.read_text() + "gan_iterations = 5\n")
            n = len(cfg.read_text().splitlines())
            return 2, f"config error: config key 'gan_iterations' is set on line 8 and again on line {n}"
        cfg.write_bytes(cfg.read_bytes().replace(b"\n", "\n# caf\u00e9\n".encode("latin-1"), 1))
        return 2, f"config error: {cfg} is not UTF-8 text"

    @pytest.mark.parametrize("damage", ["config_non_utf8", "config_repeated_key"])
    def test_unreadable_input_exits_naming_the_file(self, tmp_path, damage):
        from kggan import cli

        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY.format(out=tmp_path / "out"))
        assert cli.main(["--config", str(cfg), "generate-data"]) == 0
        code, message = self._damage(tmp_path, cfg, damage)
        proc = run_cli(["--config", str(cfg), "train-embedder"], cwd=tmp_path)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        assert message in proc.stderr
        assert not (tmp_path / "out" / "embedder.ckpt").exists()


class TestAbortCheckpoint:
    def test_aborted_checkpoint_is_the_state_at_the_failing_iteration(self, tmp_path, monkeypatch):
        from kggan import cli, gan, optim
        from kggan.checkpoint import load_checkpoint

        k = 5
        cfg, cfg_k = tmp_path / "exp.cfg", tmp_path / "exp_k.cfg"
        cfg.write_text(TINY.format(out=tmp_path / "out").replace("= 40", "= 8"))
        cfg_k.write_text(TINY.format(out=tmp_path / "out").replace("= 40", f"= {k}"))
        for cmd in (["generate-data"], ["train-embedder"]):
            assert cli.main(["--config", str(cfg), *cmd]) == 0
        # an uninterrupted run of k iterations ends where iteration k starts
        assert cli.main(["--config", str(cfg_k), "train", "--cell", "kggan_full"]) == 0
        cell_dir = tmp_path / "out" / "cells" / "kggan_full"
        finished = (cell_dir / "checkpoint.ckpt").read_bytes()
        expected, _ = load_checkpoint(cell_dir / "checkpoint.ckpt")

        calls = []

        def poisoned(params, state, grads, t):
            calls.append(len(params))
            if len(calls) == 2 * k + 2:  # iteration k's G step, after its D step
                grads[0][0, 0] = np.nan
            return optim.adam_step(params, state, grads, t)

        monkeypatch.setattr(gan, "adam_step", poisoned)
        assert cli.main(["--config", str(cfg), "train", "--cell", "kggan_full"]) == 4
        state, metadata = load_checkpoint(cell_dir / "checkpoint.aborted.ckpt")
        assert (len(metadata["log"]), metadata["cell"]) == (k, "kggan_full")
        assert list(state) == list(expected)
        for name, arr in expected.items():
            assert state[name].shape == arr.shape and state[name].tobytes() == arr.tobytes(), name
        assert (cell_dir / "checkpoint.ckpt").read_bytes() == finished

    def test_aborted_run_resumes_to_the_uninterrupted_log(self, tmp_path, monkeypatch):
        """A NaN in G.w1's gradient at iteration 30 aborts the run; resumed
        from its checkpoint.aborted.ckpt, the run writes the uninterrupted
        run's log byte for byte, and the abort leaves the earlier run's
        checkpoint and log as they were."""
        from kggan import cli, gan, optim

        k = 30
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY.format(out=tmp_path / "out"))
        for cmd in (["generate-data"], ["train-embedder"], ["train", "--cell", "kggan_full"]):
            assert cli.main(["--config", str(cfg), *cmd]) == 0
        cell_dir = tmp_path / "out" / "cells" / "kggan_full"
        finished = {name: (cell_dir / name).read_bytes() for name in ("checkpoint.ckpt", "metrics.csv")}

        g_steps = []

        def poisoned(params, state, grads, t):
            if params[0].name == "G.w1":  # a G step
                g_steps.append(params[0].name)
                if len(g_steps) == k + 1:  # iteration k's
                    grads[0][0, 0] = np.nan
            return optim.adam_step(params, state, grads, t)

        with monkeypatch.context() as patch:
            patch.setattr(gan, "adam_step", poisoned)
            assert cli.main(["--config", str(cfg), "train", "--cell", "kggan_full"]) == 4
        assert {name: (cell_dir / name).read_bytes() for name in finished} == finished
        aborted_log = (cell_dir / "metrics.aborted.csv").read_text().splitlines()
        rows = [line for line in aborted_log if not line.startswith("#")]
        assert rows == finished["metrics.csv"].decode().splitlines()[-41:-40 + k]

        resume = cell_dir / "checkpoint.aborted.ckpt"
        argv = ["--config", str(cfg), "train", "--cell", "kggan_full", "--resume", str(resume)]
        assert cli.main(argv) == 0
        assert (cell_dir / "metrics.csv").read_bytes() == finished["metrics.csv"]
        assert (cell_dir / "checkpoint.ckpt").read_bytes() == finished["checkpoint.ckpt"]


class TestAbortMessage:
    def test_abort_names_the_parameter_and_the_iteration(self, tmp_path, monkeypatch, capsys):
        """A NaN in G.w1's gradient at iteration k exits 4, and stderr names
        the parameter and the iteration."""
        from kggan import cli, gan, optim

        k = 3
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY.format(out=tmp_path / "out").replace("= 40", "= 8"))
        for cmd in (["generate-data"], ["train-embedder"]):
            assert cli.main(["--config", str(cfg), *cmd]) == 0
        g_steps = []

        def poisoned(params, state, grads, t):
            if params[0].name == "G.w1":  # a G step
                g_steps.append(params[0].name)
                if len(g_steps) == k + 1:  # iteration k's
                    grads[0][0, 0] = np.nan
            return optim.adam_step(params, state, grads, t)

        monkeypatch.setattr(gan, "adam_step", poisoned)
        capsys.readouterr()
        assert cli.main(["--config", str(cfg), "train", "--cell", "kggan_full"]) == 4
        err = capsys.readouterr().err
        assert err == f"numerical abort: non-finite gradient for parameter G.w1 at iteration {k}\n"


class TestUnwritableCellDirectory:
    def test_train_exits_5_naming_the_directory_before_it_trains(self, tmp_path, monkeypatch, capsys):
        """A file where the cells' directory goes makes ``train`` exit 5,
        naming the cell's directory, before ``gan.train`` runs at all."""
        from kggan import cli, gan

        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY.format(out=tmp_path / "out").replace("= 40", "= 4"))
        for verb in (["generate-data"], ["train-embedder"]):
            assert cli.main(["--config", str(cfg), *verb]) == 0
        (tmp_path / "out" / "cells").write_text("")
        calls, train = [], gan.train
        monkeypatch.setattr(gan, "train", lambda *a, **k: calls.append(a) or train(*a, **k))
        capsys.readouterr()
        assert cli.main(["--config", str(cfg), "train", "--cell", "kggan_full"]) == 5
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and str(tmp_path / "out" / "cells" / "kggan_full") in err
        assert "Traceback" not in err
        assert calls == []


class TestAblateExitCodes:
    """``ablate`` exits with the code ``train`` gives for the first cell
    that failed, in CELLS order: 5 for an I/O error, 4 for a NaN. When
    every cell fails, the report is the table's header and a FAILED line
    per cell."""

    @pytest.mark.parametrize(
        "nan_cell, blocked_cell, code",
        [
            (None, "kggan_full", 5),
            ("kggan_full", None, 4),
            ("kggan_full", "one_hot_kggan", 5),
            (None, "cells", 5),  # a file where every cell's directory goes
        ],
    )
    def test_first_failed_cell_sets_the_code(
        self, tmp_path, monkeypatch, capsys, nan_cell, blocked_cell, code
    ):
        from kggan import cli, gan, optim

        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY.format(out=tmp_path / "out").replace("= 40", "= 4"))
        failed = {nan_cell: "NumericalAbort"} if nan_cell else {}
        if blocked_cell:  # a file where the cell's directory goes, so train exits 5
            for verb in (["generate-data"], ["train-embedder"]):
                assert cli.main(["--config", str(cfg), *verb]) == 0
            cells = tmp_path / "out" / "cells"
            if blocked_cell == "cells":
                cells.write_text("")
                failed.update(dict.fromkeys(cli.CELLS, "NotADirectoryError"))
            else:
                cells.mkdir()
                (cells / blocked_cell).write_text("")
                failed[blocked_cell] = "FileExistsError"
            first = blocked_cell if blocked_cell in cli.CELLS else cli.CELLS[0]
            assert cli.main(["--config", str(cfg), "train", "--cell", first]) == 5
        poisoned_cells = []
        cmd_train = cli.cmd_train

        def train_cell(ws, cell, resume=None):
            poisoned_cells.append(cell == nan_cell)
            return cmd_train(ws, cell, resume)

        def adam_step(params, state, grads, t):
            if poisoned_cells[-1]:
                grads[0][0, 0] = np.nan
            return optim.adam_step(params, state, grads, t)

        monkeypatch.setattr(cli, "cmd_train", train_cell)
        monkeypatch.setattr(gan, "adam_step", adam_step)
        capsys.readouterr()
        assert cli.main(["--config", str(cfg), "ablate"]) == code
        assert "Traceback" not in capsys.readouterr().err
        report = (tmp_path / "out" / "ablation" / "combined.txt").read_text()
        for cell in cli.CELLS:
            assert (f"cell {cell} FAILED" in report) == (cell in failed), cell
        assert all(f"cell {c} FAILED: {kind}" in report for c, kind in failed.items())
        assert report.startswith("# config ") and "\nMethod " in report


class TestNoTapeLeftBehind:
    def test_every_verb_leaves_the_tape_empty(self, tmp_path, monkeypatch):
        """Every op outside no_grad is recorded, so each verb must end with
        its last backward pass, or clear the tape, even when it aborts."""
        from kggan import autodiff as ad
        from kggan import cli, gan, optim

        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY.format(out=tmp_path / "out").replace("= 40", "= 4"))
        for verb in (
            ["generate-data"],
            ["train-embedder"],
            ["train", "--cell", "kggan_full"],
            ["train", "--cell", "kggan_no_se"],
            ["evaluate", "--cell", "kggan_full"],
        ):
            assert cli.main(["--config", str(cfg), *verb]) == 0, verb
            assert len(ad.get_tape()) == 0, verb

        def poisoned(params, state, grads, t):
            grads[0][0, 0] = np.nan
            return optim.adam_step(params, state, grads, t)

        monkeypatch.setattr(gan, "adam_step", poisoned)
        assert cli.main(["--config", str(cfg), "train", "--cell", "kggan_full"]) == 4
        assert len(ad.get_tape()) == 0


class TestDatasetFiles:
    @staticmethod
    def _damage(path, damage):
        """Damage the dataset file of 60 samples of 3x8x8; returns what is named."""
        if damage == "nan_pixel":  # pixel 9 of sample 7, under a valid digest

            def poison(state):
                state["images"][7].flat[9] = np.nan

            rewrite_checkpoint(path, poison)
            return "tensor images row 7 holds a non-finite value"
        if damage == "float64_images":  # the file as it was before images were float32

            def widen(state):
                state["images"] = state["images"].astype(np.float64)

            rewrite_checkpoint(path, widen)
            return "tensor images has dtype float64, expected float32"
        blob = path.read_bytes()
        if damage == "unknown_dtype":  # under a valid digest
            body = blob[:-8].replace(b'"dtype":"F32"', b'"dtype":"F16"', 1)
            path.write_bytes(body + hashlib.blake2b(body, digest_size=8).digest())
            return "tensor images has unknown dtype 'F16'"
        if damage == "partial_float":
            path.write_bytes(blob[:-8] + b"\0\0" + blob[-8:])
            return "payload of .* bytes is not whole float64 values"
        if damage == "flipped_byte":
            path.write_bytes(blob[:-20] + bytes([blob[-20] ^ 1]) + blob[-19:])
            return "failed its content hash check"
        path.write_bytes(blob[: len(blob) - 8 * 1000])  # cut short by 1000 float64s
        return "failed its content hash check"

    @pytest.mark.parametrize(
        "damage",
        ["nan_pixel", "partial_float", "flipped_byte", "truncated", "float64_images", "unknown_dtype"],
    )
    def test_damaged_dataset_exits_3_naming_file_and_row(self, tmp_path, damage):
        from kggan import cli

        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY.format(out=tmp_path / "out"))
        assert cli.main(["--config", str(cfg), "generate-data"]) == 0
        path = tmp_path / "out" / "dataset" / "dataset.ckpt"
        named = self._damage(path, damage)
        proc = run_cli(["--config", str(cfg), "train-embedder"], cwd=tmp_path)
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert re.search(f"contract violation: {re.escape(str(path))}:? {named}", proc.stderr)
        assert not (tmp_path / "out" / "embedder.ckpt").exists()

    @pytest.mark.parametrize(
        "generated, used, named",
        [
            ([], ["--seed", "7"], "config.data_seed 101, this run has 7"),
            ([], [], "config.images_per_category 10, this run has 5"),
        ],
        ids=["other_seed", "other_images_per_category"],
    )
    def test_data_of_another_config_exits_3_naming_the_field(self, tmp_path, generated, used, named):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY.format(out=tmp_path / "out"))
        assert run_cli(["--config", str(cfg), *generated, "generate-data"], cwd=tmp_path).returncode == 0
        if not used:
            cfg.write_text(cfg.read_text().replace("images_per_category = 10", "images_per_category = 5"))
        proc = run_cli(["--config", str(cfg), *used, "train-embedder"], cwd=tmp_path)
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        path = tmp_path / "out" / "dataset" / "dataset.ckpt"
        assert f"contract violation: {path}: checkpoint has {named}" in proc.stderr
        assert not (tmp_path / "out" / "embedder.ckpt").exists()
