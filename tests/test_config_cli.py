"""Configuration round-trips and the command-line harness."""

import os
import shutil
import struct
import subprocess
import sys

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

    def test_validation_bounds(self):
        with pytest.raises(ConfigError):
            parse_config("image_size = 4\n")
        with pytest.raises(ConfigError):
            parse_config("n_unseen = 12\n")

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
        + ["gan_lr = 0", "embedder_lr = -1e-3", "embedder_lr = inf", "adam_beta1 = -0.1",
           "adam_beta2 = 1.0", "adam_beta2 = nan", "lambda_se = nan", "n_gen = 1",
           "z_dim = 0", "d_hidden = 0", "feat_dim = 0", "grid_rows = 0", "n_categories = 1",
           "d_steps_per_g_step = 0", "embedder_steps = 0", "embedder_plateau = -1"],
    )
    def test_negative_seed_and_empty_batch_rejected(self, line):
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

    def test_repeated_key_rejected_naming_both_lines(self):
        text = "gan_iterations = 2\nbatch_size = 4\n\ngan_iterations = 5\n"
        with pytest.raises(ConfigError, match="'gan_iterations' is set on line 1 and again on line 4"):
            parse_config(text)

    def test_zero_plateau_and_zero_betas_accepted(self):
        config = parse_config("embedder_plateau = 0\nadam_beta1 = 0.0\nadam_beta2 = 0.0\n")
        assert config.embedder_plateau == 0 and config.adam_beta2 == 0.0


class TestGenerateData:
    def test_dataset_files_exist_and_parse(self, workspace):
        root, _ = workspace
        out = root / "out" / "dataset"
        from kggan import synthdata as sd

        images, side = sd.load_blob(out / "images.blob")
        ids = sd.load_manifest(out / "manifest.csv", 6)
        assert side == 8
        assert images.shape == (60, 3, 8, 8)
        assert len(ids) == 60
        lines = (out / "descriptions.txt").read_text().splitlines()
        assert {int(l.split()[1]) for l in lines if l.startswith("#category ")} == set(range(6))

    def test_manifest_row_count(self, workspace):
        root, _ = workspace
        lines = (root / "out" / "dataset" / "manifest.csv").read_text().splitlines()
        rows = [l for l in lines if l and not l.startswith("#") and not l.startswith("offset")]
        assert len(rows) == 6 * 10

    def test_rerun_is_byte_identical(self, workspace):
        root, cfg_path = workspace
        blob = (root / "out" / "dataset" / "images.blob").read_bytes()
        proc = run_cli(["--config", str(cfg_path), "generate-data"], cwd=root)
        assert proc.returncode == 0
        assert (root / "out" / "dataset" / "images.blob").read_bytes() == blob

    def test_artifacts_carry_config_hash(self, workspace):
        root, cfg_path = workspace
        from kggan.config import load_config

        expected = config_hash(load_config(cfg_path))
        for name in ("manifest.csv", "descriptions.txt", "embeddings.txt"):
            text = (root / "out" / "dataset" / name).read_text()
            assert f"config {expected}" in text.splitlines()[0]


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

    def test_one_draw_scores_match_separate_draws(self, workspace):
        from kggan import cli, evaluation, regressor, semantics, synthdata
        from kggan.autodiff import Tensor, no_grad
        from kggan.config import load_config

        ws = cli.Workspace(load_config(workspace[1]))
        report, consistency, color, sample_fn, split = cli.evaluate_checkpoint(ws, "kggan_full")
        config, dataset = ws.config, cli._load_dataset(ws)
        embedder = regressor.freeze(
            regressor.load_regressor(ws.embedder_path, config.image_size, config.embed_dim)
        )
        ids = sorted(split.seen_ids | split.unseen_ids)
        embeddings = semantics.load_embeddings(ws.embeddings_path)
        specs_by_id = {s.id: s for s in dataset.specs}
        n = config.n_gen
        separate = evaluation.per_category_fid(sample_fn, dataset, split, embedder, n)
        assert report.per_category == separate.per_category
        # references from fresh draws: a full forward pass, a per-image loop
        for cid in ids:
            images = sample_fn(cid, n)
            with no_grad():
                pred = embedder.forward(Tensor(images)).data
            target = embeddings[cid]
            assert consistency[cid] == float(np.mean(np.sum((pred - target) ** 2, axis=1)))
            want = int(np.argmax(np.asarray(specs_by_id[cid].base_color)))
            hits = sum(
                1 for img in images if int(np.argmax(synthdata.mean_foreground_color(img))) == want
            )
            assert color[cid] == hits / len(images)

    def test_ppm_files_are_valid_p6(self, workspace):
        root, _ = workspace
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

    def test_fid_report_averages_recompute(self, workspace):
        root, _ = workspace
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


class TestEmbeddingsFile:
    @pytest.mark.parametrize("damage", ["short_row", "nan"])
    def test_damaged_embeddings_exit_3_naming_file_and_category(self, tmp_path, damage):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY.format(out=tmp_path / "out"))
        assert run_cli(["--config", str(cfg), "generate-data"], cwd=tmp_path).returncode == 0
        path = tmp_path / "out" / "dataset" / "embeddings.txt"
        lines = path.read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("4 "))
        parts = lines[row].split()
        lines[row] = " ".join(parts[:-1] if damage == "short_row" else parts[:-1] + ["nan"])
        path.write_text("\n".join(lines) + "\n")
        proc = run_cli(["--config", str(cfg), "train-embedder"], cwd=tmp_path)
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"contract violation: {path}: category 4 has" in proc.stderr

    @staticmethod
    def _damage_table(path, damage):
        """Damage the table of 6 categories x 16 values; returns what is named."""
        lines = path.read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("4 "))
        if damage == "missing_row":
            del lines[row]
            named = "expected category 4, found category 5"
        elif damage == "repeated_row":
            lines.insert(row, lines[row])
            named = "expected category 5, found category 4"
        elif damage == "extra_row":
            lines.append("6 " + lines[row].split(" ", 1)[1])
            named = "table is 7 categories x 16 values, the config needs 6 x 16"
        else:
            lines = [line if line.startswith("#") else line.rsplit(" ", 1)[0] for line in lines]
            named = "table is 6 categories x 15 values, the config needs 6 x 16"
        path.write_text("\n".join(lines) + "\n")
        return named

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
        path = tmp_path / "out" / "dataset" / "embeddings.txt"
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
        full_log = (tmp_path / "out" / "cells" / "kggan_full" / "metrics.csv").read_text()

        # train a half-length run, then resume it to completion
        half_cfg = tmp_path / "half.cfg"
        half_cfg.write_text(TINY.format(out=tmp_path / "out2").replace("gan_iterations = 40", "gan_iterations = 20"))
        for cmd in (["generate-data"], ["train-embedder"], ["train", "--cell", "kggan_full"]):
            proc = run_cli(["--config", str(half_cfg), *cmd], cwd=tmp_path)
            assert proc.returncode == 0, proc.stderr
        resume_cfg = tmp_path / "resume.cfg"
        resume_cfg.write_text(TINY.format(out=tmp_path / "out2"))
        proc = run_cli(
            [
                "--config",
                str(resume_cfg),
                "train",
                "--cell",
                "kggan_full",
                "--resume",
                str(tmp_path / "out2" / "cells" / "kggan_full" / "checkpoint.ckpt"),
            ],
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        resumed_log = (tmp_path / "out2" / "cells" / "kggan_full" / "metrics.csv").read_text()
        # resumed log holds iterations 20..39; the uninterrupted one 0..39
        tail = [l for l in full_log.splitlines() if l and not l.startswith(("#", "iteration"))][20:]
        resumed_rows = [
            l for l in resumed_log.splitlines() if l and not l.startswith(("#", "iteration"))
        ]
        assert resumed_rows == tail


@pytest.fixture(scope="module")
def trained_cells(workspace):
    """The workspace with three cells trained in process."""
    from kggan import cli

    root, cfg_path = workspace
    for cell in ("baseline_full_data", "one_hot_kggan", "kggan_full"):
        assert cli.main(["--config", str(cfg_path), "train", "--cell", cell]) == 0
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


class TestEvaluateLoad:
    def test_evaluate_builds_no_optimizer_or_preconditioner(self, trained_cells, monkeypatch):
        from kggan import cli, gan, semantics
        from kggan.optim import AdamState

        root, cfg_path = trained_cells
        cell_dir = root / "out" / "cells" / "kggan_full"
        argv = ["--config", str(cfg_path), "evaluate", "--cell", "kggan_full"]

        def written():
            """What evaluate writes: every file but train's checkpoint and log."""
            files = sorted(p for p in cell_dir.rglob("*") if p.is_file())
            trained = ("checkpoint.ckpt", "metrics.csv")
            return {p.relative_to(cell_dir): p.read_bytes() for p in files if p.name not in trained}

        # the whole-state load into a preconditioned model, as training builds it
        embeddings = semantics.load_embeddings(root / "out" / "dataset" / "embeddings.txt")

        def whole_state_load(path, model, run=None):
            model.set_condition_preconditioner(*gan.condition_preconditioner(embeddings))
            return gan.load_gan(path, model, gan.TrainConfig(), run=run)[0]

        with monkeypatch.context() as patch:
            patch.setattr(gan, "load_generator", whole_state_load)
            assert cli.main(argv) == 0
        reference = written()

        calls = []
        for_params, preconditioner = AdamState.for_params, gan.condition_preconditioner
        monkeypatch.setattr(
            AdamState,
            "for_params",
            staticmethod(lambda *a, **k: calls.append("for_params") or for_params(*a, **k)),
        )
        monkeypatch.setattr(
            gan,
            "condition_preconditioner",
            lambda *a, **k: calls.append("condition_preconditioner") or preconditioner(*a, **k),
        )
        for name in reference:
            (cell_dir / name).unlink()
        assert cli.main(argv) == 0
        assert calls == []
        assert written() == reference


class TestUnreadableInput:
    @staticmethod
    def _damage(tmp_path, cfg, damage):
        """Damage one input file; returns the exit code and the message expected."""
        dataset = tmp_path / "out" / "dataset"
        if damage == "config_repeated_key":
            cfg.write_text(cfg.read_text() + "gan_iterations = 5\n")
            n = len(cfg.read_text().splitlines())
            return 2, f"config error: config key 'gan_iterations' is set on line 8 and again on line {n}"
        path = {
            "config_non_utf8": cfg,
            "manifest_non_utf8": dataset / "manifest.csv",
            "embeddings_non_utf8": dataset / "embeddings.txt",
            "report_non_utf8": tmp_path / "out" / "ablation" / "combined.txt",
        }[damage]
        if damage == "report_non_utf8":
            path.parent.mkdir()
            path.write_text("method,condition,l_se,seen_fid,unseen_fid\n")
        path.write_bytes(path.read_bytes().replace(b"\n", "\n# caf\u00e9\n".encode("latin-1"), 1))
        if damage == "config_non_utf8":
            return 2, f"config error: {path} is not UTF-8 text"
        return 3, f"contract violation: {path} is not UTF-8 text"

    @pytest.mark.parametrize(
        "damage",
        [
            "config_non_utf8",
            "config_repeated_key",
            "manifest_non_utf8",
            "embeddings_non_utf8",
            "report_non_utf8",
        ],
    )
    def test_unreadable_input_exits_naming_the_file(self, tmp_path, damage):
        from kggan import cli

        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY.format(out=tmp_path / "out"))
        assert cli.main(["--config", str(cfg), "generate-data"]) == 0
        code, message = self._damage(tmp_path, cfg, damage)
        verb = "report" if damage == "report_non_utf8" else "train-embedder"
        proc = run_cli(["--config", str(cfg), verb], cwd=tmp_path)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        assert message in proc.stderr
        assert not (tmp_path / "out" / "embedder.ckpt").exists()


class TestAbortCheckpoint:
    def test_aborted_checkpoint_is_the_state_at_the_failing_iteration(self, tmp_path, monkeypatch):
        from kggan import cli, gan, optim
        from kggan.checkpoint import load_checkpoint
        from kggan.config import load_config

        k = 5
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY.format(out=tmp_path / "out").replace("= 40", "= 8"))
        for cmd in (["generate-data"], ["train-embedder"]):
            assert cli.main(["--config", str(cfg), *cmd]) == 0
        # an uninterrupted run of k iterations ends where iteration k starts
        ws = cli.Workspace(load_config(cfg))
        ws.config.gan_iterations = k
        model, _, opt_g, opt_d = cli.run_cell(ws, "kggan_full")
        expected = gan.gan_state(model, opt_g, opt_d, k)

        calls = []

        def poisoned(params, state, grads):
            calls.append(len(params))
            if len(calls) == 2 * k + 2:  # iteration k's G step, after its D step
                grads[0][0, 0] = np.nan
            return optim.adam_step(params, state, grads)

        monkeypatch.setattr(gan, "adam_step", poisoned)
        assert cli.main(["--config", str(cfg), "train", "--cell", "kggan_full"]) == 4
        cell_dir = tmp_path / "out" / "cells" / "kggan_full"
        state, metadata = load_checkpoint(cell_dir / "checkpoint.aborted.ckpt")
        assert (metadata["iteration"], metadata["cell"]) == (k, "kggan_full")
        assert list(state) == list(expected)
        for name, arr in expected.items():
            assert state[name].shape == arr.shape and state[name].tobytes() == arr.tobytes(), name
        assert not (cell_dir / "checkpoint.ckpt").exists()


class TestDatasetFiles:
    @staticmethod
    def _damage_manifest(path, damage):
        """Damage the row of offset 5; returns the line number to be named."""
        lines = path.read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("5,"))
        cid = lines[row].split(",")[1]
        if damage == "missing":
            del lines[row]  # the last row's offset then lies outside 0..n-1
            named = len(lines)
        else:
            bad = {
                "malformed": f"5;{cid}",
                "duplicate": f"4,{cid}",
                "out_of_range": f"999,{cid}",
                "category": "5,99",
            }
            lines[row] = bad[damage]
            named = row + 1
        path.write_text("\n".join(lines) + "\n")
        return f"{path}: line {named} " + ("has category 99" if damage == "category" else "")

    @staticmethod
    def _damage_blob(path, damage):
        """A NaN at pixel 9 of sample 7 (16-byte header, 3x8x8 floats each),
        or 2 bytes past the last whole float."""
        blob = bytearray(path.read_bytes())
        if damage == "partial_float":
            path.write_bytes(blob + b"\0\0")
            return f"{path}: {len(blob) - 16 + 2} bytes of pixels, expected {len(blob) - 16}"
        struct.pack_into("<f", blob, 16 + 4 * (7 * 3 * 8 * 8 + 9), float("nan"))
        path.write_bytes(bytes(blob))
        return f"{path}: sample 7 has a non-finite pixel"

    @pytest.mark.parametrize(
        "damage",
        [
            "malformed",
            "duplicate",
            "out_of_range",
            "category",
            "missing",
            "nan_pixel",
            "partial_float",
        ],
    )
    def test_damaged_dataset_exits_3_naming_file_and_row(self, tmp_path, damage):
        from kggan import cli

        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY.format(out=tmp_path / "out"))
        assert cli.main(["--config", str(cfg), "generate-data"]) == 0
        dataset = tmp_path / "out" / "dataset"
        if damage in ("nan_pixel", "partial_float"):
            named = self._damage_blob(dataset / "images.blob", damage)
        else:
            named = self._damage_manifest(dataset / "manifest.csv", damage)
        proc = run_cli(["--config", str(cfg), "train-embedder"], cwd=tmp_path)
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"contract violation: {named}" in proc.stderr
