"""Properties: whatever tiny config file and verbs it is given, the CLI ends
with a documented exit code and lets no exception escape; and a metric log
a checkpoint records reads back, on resume, bit for bit."""

import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from kggan import cli, gan
from kggan.config import ExperimentConfig

# a desk-scale run small enough that every verb takes milliseconds
BASE = {
    "n_categories": 3,
    "images_per_category": 2,
    "image_size": 8,
    "n_unseen": 1,
    "descriptions_per_category": 1,
    "embed_dim": 4,
    "embedder_steps": 2,
    "gan_iterations": 2,
    "batch_size": 2,
    "z_dim": 2,
    "g_hidden": 4,
    "d_hidden": 4,
    "feat_dim": 4,
    "n_gen": 3,
    "grid_rows": 1,
}

# values around and beyond each field's valid range
DRAWN = {
    "n_categories": st.integers(0, 4),
    "images_per_category": st.integers(0, 3),
    "image_size": st.sampled_from([4, 8]),
    "n_unseen": st.integers(0, 3),
    "embed_dim": st.integers(0, 4),
    "gan_iterations": st.integers(0, 3),
    "batch_size": st.integers(-1, 3),
    "n_gen": st.integers(1, 4),
    "lambda_se": st.sampled_from(["0.0", "0.1", "nan", "-1", "lots"]),
    "gan_seed": st.integers(-1, 3),
}

VERBS = st.sampled_from(
    [["generate-data"], ["train-embedder"], ["ablate"], ["evaluate", "--cell", "bogus"]]
    + [[verb, "--cell", cell] for verb in ("train", "evaluate") for cell in cli.CELLS]
    + [["train", "--cell", "kggan_full", "--resume", "embedder.ckpt"]]
)


@st.composite
def runs(draw):
    """(settings, extra config line, --seed flag, verbs); at most two fields
    leave the base, and the verbs often start by building the data."""
    settings_ = dict(BASE)
    for key in draw(st.lists(st.sampled_from(sorted(DRAWN)), max_size=2, unique=True)):
        settings_[key] = draw(DRAWN[key])
    extra = draw(st.sampled_from(["", "", "", "", "no equals sign", "unknown_key = 1"]))
    seed = draw(st.sampled_from([[], [], [], ["--seed", "-1"], ["--seed", "5"]]))
    setup = draw(st.sampled_from([[["generate-data"], ["train-embedder"]], [["generate-data"]], []]))
    return settings_, extra, seed, setup + draw(st.lists(VERBS, min_size=1, max_size=3))


@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(runs())
def test_cli_exits_with_a_documented_code(run):
    settings_, extra, seed, verbs = run
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        lines = [f"{key} = {value}" for key, value in settings_.items()]
        lines += [f"out_dir = {root / 'out'}", extra]
        cfg = root / "exp.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        for verb in verbs:
            argv = ["--config", str(cfg), *seed, *verb]
            if "--resume" in verb:
                argv[-1] = str(root / "out" / "embedder.ckpt")
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
            assert code in (0, 2, 3, 4, 5), (argv, code)


# every finite double, subnormals included
LOSS = st.floats(allow_nan=False, allow_infinity=False)


def tiny_model():
    """A GAN of a few dozen weights, the least that a checkpoint can hold."""
    rng = np.random.default_rng(0)
    dims = {"z_dim": 2, "g_hidden": 2, "d_hidden": 2, "feat_dim": 2}
    return gan.GanModel(image_size=2, cond_dim=2, condition_mode=gan.CONDITION_ONE_HOT, rng=rng, **dims)


@settings(max_examples=200, deadline=None, derandomize=True)
@example([(-0.0, 5e-324, -2.2250738585072014e-308, 1e300)])
@example([(1.7976931348623157e308, -1e-300, 0.0, 9.999999999999999e299), (1e-300, -0.0, 2e-310, -1e300)])
@given(st.lists(st.tuples(LOSS, LOSS, LOSS, LOSS), max_size=6))
def test_written_metric_rows_read_back_bit_for_bit(losses):
    """Rows ``gan.save_gan`` records, ``gan.load_gan`` reads back with the
    same bits: the iteration an int, each loss the same double, -0.0 kept;
    and ``_write_table`` renders them to the same text as the rows saved."""
    rows = [(i, *values) for i, values in enumerate(losses)]
    model, config = tiny_model(), ExperimentConfig()
    state = gan.gan_state(model, *gan.new_optimizers(model, config))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.ckpt"
        gan.save_gan(path, state, model.condition_mode, {}, rows)
        back, _, _, iteration = gan.load_gan(path, tiny_model(), config)
        texts = []
        for name, log in (("saved.csv", rows), ("loaded.csv", back)):
            cli._write_table(Path(tmp) / name, ["config abc", "seed 1"], gan.METRIC_COLUMNS, log)
            texts.append((Path(tmp) / name).read_text())
    assert iteration == len(rows)
    assert all(type(row[0]) is int for row in back)
    assert [struct.pack("<q4d", *row) for row in back] == [struct.pack("<q4d", *row) for row in rows]
    assert texts[0] == texts[1]
