"""Property: whatever tiny config file and verbs it is given, the CLI ends
with a documented exit code and lets no exception escape."""

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kggan import cli

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
    "condition_mode": st.sampled_from(["one_hot", "semantic_embedding", "other"]),
    "gan_seed": st.integers(-1, 3),
}

VERBS = st.sampled_from(
    [["generate-data"], ["train-embedder"], ["ablate"], ["report"], ["evaluate", "--cell", "bogus"]]
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
