"""Benchmark of the kggan CLI: three workloads, one process, closed loop.

    python3 perfbench/run.py --workload train_kg --seed 1 --seconds 15 --trace 0

Each workload calls the public entry point ``kggan.cli.main`` in process,
one stage at a time, the next only after the last returned:

    train_kg     train --cell kggan_full          gan.train, with the frozen
                                                  regressor on the backward path
    train_sngan  train --cell baseline_full_data  gan.train_sngan
    evaluate     evaluate --cell kggan_full       checkpoint load, sampling,
                                                  per-category FID

Set-up (generate-data and train-embedder, plus, for evaluate, training the
checkpoint it scores) runs SETUP_REPEATS times and ``setup_s`` is its
median. The stage then runs again and again until ``--seconds`` have
passed, at least once, and ``stage_s`` is the median. Each CLI call and
each output check is one attempted operation; a non-zero exit, an
exception or a failed check is one failure.

With ``--trace 1`` the run reports per-layer metrics instead. Set-up runs
once with its data stages traced; then untraced and traced stage runs
alternate, and every traced run must write the same bytes as the first
untraced one. Per-layer counts and times are per stage run, and
``bench.trace_overhead_pct`` compares the two kinds of run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every operation succeeded, 1 when one failed, and 2 when the kggan
package cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1  # one process on a small box; also the steadiest setting
SETUP_REPEATS = 3

# The default ExperimentConfig with shorter training, so that a run of
# each workload fits in well under a minute: the work per GAN iteration,
# per embedder step and per evaluation is unchanged, only the number of
# iterations and steps shrinks (from 3000 and 2000).
CONFIG_OVERRIDES = {"gan_iterations": 300, "embedder_steps": 500}

DATA_SETUP = (("generate-data",), ("train-embedder",))


@dataclass(frozen=True)
class Workload:
    stage: tuple  # the CLI verb and arguments that are measured
    extra_setup: tuple  # CLI stages that set-up runs after DATA_SETUP
    # Whether the CLI gets the workload seed. evaluate keeps the default
    # seeds: its time is dominated by a Jacobi eigensolver whose
    # convergence test passes or fails by rounding, so from one seed's
    # checkpoint to the next it swings between 16 s and 31 s.
    seeded: bool

    @property
    def cell(self) -> str:
        return _cell(self.stage)


def _cell(argv) -> str:
    return argv[argv.index("--cell") + 1]


WORKLOADS = {
    "train_kg": Workload(("train", "--cell", "kggan_full"), (), True),
    "train_sngan": Workload(("train", "--cell", "baseline_full_data"), (), True),
    "evaluate": Workload(
        ("evaluate", "--cell", "kggan_full"), (("train", "--cell", "kggan_full"),), False
    ),
}


def pin_blas_threads() -> None:
    """Fix the BLAS thread count; has effect only before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def environment(workload: str, seed: int, trace: int) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        cpu = models[0] if models else cpu
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": git_commit(ROOT),
        "config": CONFIG_OVERRIDES,
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = root / ".git"
    if not (git / "HEAD").is_file():
        return "unknown"
    head = (git / "HEAD").read_text(encoding="utf-8").strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def digest_tree(directory: Path) -> dict:
    """blake2b digest of every file under ``directory``, by relative path."""
    out = {}
    for dirpath, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = hashlib.blake2b(fh.read()).hexdigest()
    return out


def _same(got: dict, want: dict) -> None:
    if got != want:
        differ = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        raise checks.CheckFailed(f"outputs differ: {differ}")


class Session:
    """Runs one workload's CLI stages and checks, counting attempts and failures."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        from kggan import cli, config

        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.config = config.ExperimentConfig(**CONFIG_OVERRIDES)
        self.config_path = str(workdir / "bench.cfg")
        config.save_config(self.config_path, self.config)
        self.attempted = 0
        self.failed = 0
        self.fid = None  # (seen, unseen) from the last evaluate
        self._main = cli.main
        self._reference = None  # digests of the first stage run

    def _fail(self, why: str) -> None:
        self.failed += 1
        print(f"FAILED: {why}", file=sys.stderr)

    def check(self, what: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # any error inside a check fails that check
            self._fail(f"{what}: {type(exc).__name__}: {exc}")
            return None

    def cli(self, out: Path, argv) -> float:
        """Run one CLI stage; returns its wall time in seconds."""
        args = ["--config", self.config_path, "--out", str(out)]
        if self.workload.seeded:
            args += ["--seed", str(self.seed)]
        args += list(argv)
        self.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sys.stderr):
                code = self._main(args)
        except Exception:  # a traceback out of the CLI is a failed operation
            traceback.print_exc()
            code = "an exception"
        elapsed = time.perf_counter() - start
        if code != 0:
            self._fail(f"kggan {' '.join(argv)} exited with {code}")
        return elapsed

    def check_outputs(self, out: Path, argv) -> dict:
        """Check what one stage wrote; returns the digests of its cell."""
        cell = out / "cells" / _cell(argv)
        if argv[0] == "train":
            self.check("metrics.csv", checks.metrics_csv, cell / "metrics.csv", self.config.gan_iterations)
        else:
            n = self.config.n_categories
            self.fid = self.check("fid_report.csv", checks.fid_report, cell / "fid_report.csv", n)
            self.check("samples", checks.ppm_files, cell / "samples", n)
        return digest_tree(cell)

    def check_checkpoint(self, out: Path) -> None:
        from kggan import cli

        cell = self.workload.cell
        path = str(out / "cells" / cell / "checkpoint.ckpt")
        mode = cli.CELL_RULES[cell][0]
        self.check(
            "checkpoint", checks.checkpoint_iteration, path, self.config, mode, self.config.gan_iterations
        )

    def setup(self, out: Path, tracer=None) -> float:
        """Run set-up into ``out``, its data stages under ``tracer`` if given;
        returns its wall time."""
        start = time.perf_counter()
        specs = [s for s in tracing.TRACED if s.key in tracing.SETUP_KEYS]
        with tracer.tracing(specs) if tracer else contextlib.nullcontext():
            for argv in DATA_SETUP:
                self.cli(out, argv)
        for argv in self.workload.extra_setup:
            self.cli(out, argv)
        elapsed = time.perf_counter() - start
        for argv in self.workload.extra_setup:
            self.check_outputs(out, argv)
        return elapsed

    def stage(self, out: Path, tracer=None) -> float:
        """Run the measured stage once and check it wrote what the first run
        wrote; returns its wall time."""
        with tracer.tracing() if tracer else contextlib.nullcontext():
            elapsed = self.cli(out, self.workload.stage)
        digests = self.check_outputs(out, self.workload.stage)
        if self._reference is None:
            self._reference = digests
        else:
            what = "traced outputs match untraced" if tracer else "stage outputs repeat"
            self.check(what, _same, digests, self._reference)
        return elapsed

    def repeat(self, seconds: float, body) -> None:
        """Call ``body`` until ``seconds`` have passed, at least once; stop
        early when an operation fails."""
        start = time.perf_counter()
        while True:
            failed = self.failed
            body()
            if self.failed > failed or time.perf_counter() - start >= seconds:
                return


def run_untraced(session: Session, seconds: float) -> dict:
    # every set-up writes to the same path, since the path is part of
    # the config hash the outputs carry
    out = session.workdir / "run"
    setup_times = []
    first = None
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(out, ignore_errors=True)
        setup_times.append(session.setup(out))
        digests = digest_tree(out)
        if first is None:
            first = digests
        else:
            session.check("set-up outputs repeat", _same, digests, first)

    stage_times = []
    session.repeat(seconds, lambda: stage_times.append(session.stage(out)))
    if session.workload.stage[0] == "train":
        session.check_checkpoint(out)

    print(f"set-up times (s): {[round(t, 4) for t in setup_times]}")
    print(f"stage times (s): {[round(t, 4) for t in stage_times]}")
    if session.fid:
        print(f"fid seen {session.fid[0]!r} unseen {session.fid[1]!r}")
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "stage_s": (statistics.median(stage_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run_traced(session: Session, seconds: float) -> dict:
    setup_tracer = tracing.Tracer()
    out = session.workdir / "run"
    session.setup(out, setup_tracer)

    tracer = tracing.Tracer()
    plain, traced = [], []

    def pair():
        plain.append(session.stage(out))
        traced.append(session.stage(out, tracer))

    session.repeat(seconds, pair)

    absent = sorted(setup_tracer.absent | tracer.absent)
    if absent:
        print(f"absent functions, reported as 0: {', '.join(absent)}")
    per_stage = tracer.metrics(per=len(traced))
    metrics = {
        name: (value + per_stage[name][0], unit)
        for name, (value, unit) in setup_tracer.metrics().items()
    }
    fid_seen, fid_unseen = session.fid or (0.0, 0.0)
    metrics["evaluation.fid_seen"] = (fid_seen, "fid")
    metrics["evaluation.fid_unseen"] = (fid_unseen, "fid")
    untraced_s, traced_s = statistics.median(plain), statistics.median(traced)
    metrics["bench.untraced_stage_s"] = (untraced_s, "s")
    metrics["bench.traced_stage_s"] = (traced_s, "s")
    metrics["bench.trace_overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")

    moves = {f"{s.key}.{field}": s.moves for s in tracing.TRACED for field in ("calls", "self_s")}
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit:6s} {moves.get(name, '')}")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import kggan.cli  # noqa: F401
    except ImportError as exc:
        print(f"cannot import kggan from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment(args.workload, args.seed, args.trace)))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        session = Session(WORKLOADS[args.workload], args.seed, workdir)
        metrics = (run_traced if args.trace else run_untraced)(session, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = session.failed == 0
    result = {
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
