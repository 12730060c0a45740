"""Per-layer tracing of the kggan package from outside it.

A ``Tracer`` rebinds public functions of the ``kggan`` modules to timing
wrappers and puts the originals back when tracing ends. Nothing under
``src/`` changes. Each wrapped call is a span: its self time is its
duration minus the time of the traced calls made inside it, so the self
times of all spans add up to the traced wall time.

A function is rebound in its defining module and in every ``kggan``
module that imported it by name (``gan.adam_step``,
``evaluation.trace_sqrt_product``, ``checkpoint.fnv1a_64``,
``spectral.scale`` ...). A function that no longer exists is recorded as
absent and reported with zeros, so deleting it does not break the bench.

Besides calls and self time, some functions feed extra counters:

- each autodiff op replaces the ``backward_fn`` it left on the tape with a
  timed one, giving ``autodiff.<op>.bwd_s``; that time is a child of
  ``autodiff.backward``, whose self time is then tape bookkeeping;
- ``autodiff.backward`` adds the tape length to ``autodiff.tape_nodes``;
- checkpoint reads and writes add file sizes, FNV-1a adds input bytes.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Traced:
    """One traced function and the end-to-end metric it should move."""

    module: str  # kggan submodule that defines it
    function: str  # attribute path inside the module, e.g. "RegressorModel.forward"
    moves: str  # end-to-end metric and workloads it should move
    extra: str = ""  # "op", "backward", "path_bytes" or "data_bytes"

    @property
    def key(self) -> str:
        return f"{self.module}.{self.function}"


_OPS = ("affine", "matmul", "leaky_relu", "tanh", "sigmoid", "scale", "concat", "reshape")
_TRAIN = "stage_s on train_kg and train_sngan"
_EVAL = "stage_s on evaluate"
_SETUP = "setup_s on all workloads"

TRACED = (
    *(Traced("autodiff", op, _TRAIN + "; no-grad forward only on evaluate", "op") for op in _OPS),
    Traced("autodiff", "backward", _TRAIN, "backward"),
    Traced("optim", "adam_step", _TRAIN),
    Traced("spectral", "power_iteration_step", _TRAIN),
    Traced("spectral", "spectral_normalize", _TRAIN),
    Traced("gan", "train", "stage_s on train_kg"),
    Traced("gan", "train_sngan", "stage_s on train_sngan"),
    Traced("gan", "generator_forward", _TRAIN + "; evaluate through sampling"),
    Traced("gan", "discriminator_forward", _TRAIN),
    Traced("gan", "semantic_embedding_loss", "stage_s on train_kg; 0 calls on train_sngan"),
    Traced("gan", "condition_preconditioner", "stage_s on train_kg and evaluate"),
    Traced("gan", "save_gan", _TRAIN),
    Traced("gan", "load_gan", _EVAL),
    Traced("gan", "sample_images", _EVAL),
    Traced("regressor", "RegressorModel.forward", "stage_s on train_kg (grad) and evaluate (no grad)"),
    Traced("regressor", "extract_features", _EVAL),
    Traced("regressor", "load_regressor", "stage_s on train_kg and evaluate"),
    Traced("regressor", "train_embedder", _SETUP),
    Traced("evaluation", "per_category_fid", _EVAL),
    Traced("evaluation", "feature_stats", _EVAL),
    Traced("evaluation", "embedding_consistency", _EVAL),
    Traced("evaluation", "color_fidelity", _EVAL),
    Traced("linalg", "trace_sqrt_product", _EVAL),
    Traced("linalg", "sym_sqrt", _EVAL),
    Traced("linalg", "jacobi_eigh", "stage_s on evaluate; one preconditioner solve on train_kg"),
    Traced("checkpoint", "save_checkpoint", "stage_s and setup_s on all workloads", "path_bytes"),
    Traced("checkpoint", "load_checkpoint", "stage_s and setup_s on all workloads", "path_bytes"),
    Traced("hashing", "fnv1a_64", "stage_s and setup_s on all workloads", "data_bytes"),
    Traced("synthdata", "build_dataset", _SETUP),
    Traced("synthdata", "load_blob", "stage_s and setup_s on all workloads"),
    Traced("synthdata", "mean_foreground_color", _EVAL),
    Traced("semantics", "build_embeddings", _SETUP),
    Traced("semantics", "load_embeddings", "stage_s on all workloads"),
    Traced("cli", "cmd_generate_data", _SETUP),
    Traced("cli", "cmd_train_embedder", _SETUP),
    Traced("cli", "run_cell", _TRAIN),
    Traced("cli", "cmd_train", _TRAIN),
    Traced("cli", "evaluate_checkpoint", _EVAL),
    Traced("cli", "cmd_evaluate", _EVAL),
)

# Functions that only set-up runs. While set-up is traced only these are
# wrapped, so their self time keeps the work done beneath them (the
# embedder's autodiff and Adam steps stay inside train_embedder) and the
# other layers' counters describe the measured stage alone.
SETUP_KEYS = frozenset(
    {
        "cli.cmd_generate_data",
        "cli.cmd_train_embedder",
        "synthdata.build_dataset",
        "semantics.build_embeddings",
        "regressor.train_embedder",
    }
)


def metric_units() -> dict:
    """Every per-layer metric name the tracer reports, with its unit."""
    units = {}
    for spec in TRACED:
        units[f"{spec.key}.calls"] = "count"
        units[f"{spec.key}.self_s"] = "s"
        if spec.extra == "op":
            units[f"{spec.key}.bwd_s"] = "s"
        elif spec.extra == "backward":
            units["autodiff.tape_nodes"] = "count"
        elif spec.extra in ("path_bytes", "data_bytes"):
            units[f"{spec.key}.bytes"] = "bytes"
    return units


class Tracer:
    """Collects call counts, self times and counters for traced functions."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stack = []  # per open span: time spent in its traced children
        self.calls = {}
        self.self_s = {}
        self.counters = {}
        self.absent = set()

    def _span(self, key, fn, args, kwargs):
        clock = self._clock
        stack = self._stack
        stack.append(0.0)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = clock() - start
            child = stack.pop()
            self.calls[key] = self.calls.get(key, 0) + 1
            self.self_s[key] = self.self_s.get(key, 0.0) + elapsed - child
            if stack:
                stack[-1] += elapsed

    def _count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, key, fn, before=None, after=None):
        """A function that runs ``fn`` as a span named ``key``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            result = self._span(key, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _hooks(self, spec):
        """(before, after) callbacks that feed the spec's extra counters."""
        if spec.extra == "op":
            ad = sys.modules["kggan.autodiff"]
            bwd_key = f"{spec.key}.bwd"

            def time_backward_fn(args, kwargs, result):
                nodes = ad.get_tape().nodes
                if nodes and nodes[-1][0] is result:
                    out, inputs, backward_fn = nodes[-1]
                    nodes[-1] = (out, inputs, lambda g: self._span(bwd_key, backward_fn, (g,), {}))

            return None, time_backward_fn
        if spec.extra == "backward":
            ad = sys.modules["kggan.autodiff"]
            return (lambda args, kwargs: self._count("autodiff.tape_nodes", len(ad.get_tape()))), None
        if spec.extra == "path_bytes":
            counter = f"{spec.key}.bytes"

            def file_size(args, kwargs, result=None):
                path = kwargs.get("path", args[0] if args else None)
                if path is not None and os.path.exists(path):
                    self._count(counter, os.path.getsize(path))

            # a write is sized after it, a read before it
            return (None, file_size) if spec.function.startswith("save") else (file_size, None)
        if spec.extra == "data_bytes":
            counter = f"{spec.key}.bytes"
            return (lambda args, kwargs: self._count(counter, len(args[0]))), None
        return None, None

    @contextmanager
    def tracing(self, specs=TRACED):
        """Rebind ``specs`` to timing wrappers; restore the originals on exit."""
        importlib.import_module("kggan.cli")  # loads every module the specs name
        package = [m for name, m in sys.modules.items() if name == "kggan" or name.startswith("kggan.")]
        saved = []  # (owner, attribute, original, owned) in rebinding order
        try:
            for spec in specs:
                module = sys.modules.get(f"kggan.{spec.module}")
                owner_path, _, attr = spec.function.rpartition(".")
                owner = module
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    self.absent.add(spec.key)
                    continue
                before, after = self._hooks(spec)
                wrapped = self.wrap(spec.key, original, before, after)
                sites = [(owner, attr)]
                if not owner_path:
                    sites += [
                        (m, name)
                        for m in package
                        for name, value in list(vars(m).items())
                        if value is original and (m, name) != (owner, attr)
                    ]
                for site, name in sites:
                    saved.append((site, name, original, name in vars(site)))
                    setattr(site, name, wrapped)
            yield self
        finally:
            for site, name, original, owned in reversed(saved):
                if owned:
                    setattr(site, name, original)
                else:
                    delattr(site, name)

    def metrics(self, per=1) -> dict:
        """Every per-layer metric; counts and times divided by ``per`` runs."""
        out = {}
        for name, unit in metric_units().items():
            key, _, field = name.rpartition(".")
            if field == "calls":
                value = self.calls.get(key, 0)
            elif field == "self_s":
                value = self.self_s.get(key, 0.0)
            elif field == "bwd_s":
                value = self.self_s.get(f"{key}.bwd", 0.0)
            else:
                value = self.counters.get(name, 0)
            out[name] = (value / per, unit)
        return out
