"""Self-tests of the benchmark: tracing must not change what the program
computes, self times must add up, and tracing must leave no trace.

    python3 -m pytest perfbench -q
"""

import json
import sys

import pytest

import run
import tracing

sys.path.insert(0, str(run.ROOT / "src"))

from kggan import autodiff, checkpoint, cli, evaluation, gan, hashing, linalg, optim, regressor, spectral  # noqa: E402,F401

# small enough that the Jacobi-based FID stays cheap
SMALL = {
    "gan_iterations": 12,
    "embedder_steps": 12,
    "n_categories": 3,
    "n_unseen": 1,
    "images_per_category": 10,
    "n_gen": 16,
    "grid_rows": 1,
}


def _benchmark_json():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(run, "CONFIG_OVERRIDES", SMALL)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_inclusive_minus_children():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def leaf():
        clock.now += 2.0

    def failing_leaf():
        clock.now += 0.25
        raise ValueError("boom")

    def middle():
        clock.now += 1.0
        traced_leaf()
        clock.now += 0.5
        traced_leaf()
        with pytest.raises(ValueError):
            traced_failing()

    def outer():
        clock.now += 3.0
        traced_middle()

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_failing = tracer.wrap("failing", failing_leaf)
    traced_middle = tracer.wrap("middle", middle)
    tracer.wrap("outer", outer)()

    assert tracer.calls == {"leaf": 2, "failing": 1, "middle": 1, "outer": 1}
    assert tracer.self_s == {"leaf": 4.0, "failing": 0.25, "middle": 1.5, "outer": 3.0}
    assert sum(tracer.self_s.values()) == clock.now
    assert tracer._stack == []


def _bindings():
    modules = [m for name, m in sys.modules.items() if name == "kggan" or name.startswith("kggan.")]
    out = {(m.__name__, name): value for m in modules for name, value in vars(m).items()}
    out.update({("RegressorModel", k): v for k, v in vars(regressor.RegressorModel).items()})
    return out


def test_tracing_rebinds_names_and_restores_originals():
    before = _bindings()
    originals = (optim.adam_step, linalg.trace_sqrt_product, hashing.fnv1a_64, autodiff.scale)
    forward = regressor.RegressorModel.forward
    with pytest.raises(RuntimeError):
        with tracing.Tracer().tracing():
            assert gan.adam_step is optim.adam_step is not originals[0]
            assert gan.power_iteration_step is spectral.power_iteration_step
            assert evaluation.trace_sqrt_product is linalg.trace_sqrt_product is not originals[1]
            assert checkpoint.fnv1a_64 is hashing.fnv1a_64 is not originals[2]
            assert spectral.scale is autodiff.scale is not originals[3]
            assert regressor.RegressorModel.forward is not forward
            raise RuntimeError("leave the block by an error")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_missing_function_is_reported_absent():
    tracer = tracing.Tracer()
    with tracer.tracing([tracing.Traced("linalg", "no_such_solver", "nothing")]):
        pass
    assert tracer.absent == {"linalg.no_such_solver"}


def test_traced_train_writes_the_same_metric_log(small, tmp_path):
    session = run.Session(run.WORKLOADS["train_kg"], 5, tmp_path)
    out = tmp_path / "run"
    session.setup(out)
    log = out / "cells" / "kggan_full" / "metrics.csv"
    session.stage(out)
    untraced = log.read_bytes()
    tracer = tracing.Tracer()
    session.stage(out, tracer)
    assert log.read_bytes() == untraced
    assert session.failed == 0
    assert tracer.calls["gan.train"] == 1
    assert tracer.calls["autodiff.backward"] == 2 * SMALL["gan_iterations"]
    assert tracer.counters["autodiff.tape_nodes"] > 0


def test_traced_run_matches_untraced_and_lists_every_per_layer_metric(small, tmp_path):
    session = run.Session(run.WORKLOADS["evaluate"], 0, tmp_path)
    metrics = run.run_traced(session, 0.0)
    assert session.failed == 0  # includes "traced outputs match untraced"
    assert metrics["evaluation.fid_seen"][0] > 0.0
    # one solve per FID square root and inner product, plus the preconditioner
    assert metrics["linalg.jacobi_eigh.calls"][0] == 2 * SMALL["n_categories"] + 1
    assert metrics["gan.sample_images.calls"][0] == 4 * SMALL["n_categories"]
    assert metrics["regressor.train_embedder.calls"][0] == 1
    assert metrics["optim.adam_step.calls"][0] == 0  # set-up training is not traced
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == declared


def test_untraced_run_reports_every_end_to_end_metric(small, tmp_path):
    session = run.Session(run.WORKLOADS["train_sngan"], 1, tmp_path)
    metrics = run.run_untraced(session, 0.0)
    assert session.failed == 0
    assert session.attempted > 0
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == declared
    assert all(value > 0 for value, _ in metrics.values())
