"""Checkpoints as one named state, plus the atomic writer every artifact uses.

A state maps names to float64 arrays (scalars are 0-d). A GAN's holds the
parameters G.w1 ... D.v_proj; cond.transform and cond.shift;
spectral.<D weight>.u/.sigma/.steps/.degenerate; for each optimizer
(adam_g over G, adam_d over D) adam_g.m.<param>, adam_g.v.<param> and
adam_g.step; and the next ``iteration``. A regressor's holds E.w1 ... E.b3.

Layout (version 3, the safetensors layout):
    "KGCK" | u32 version | u64 header length
    | JSON header {name: {"shape", "data_offsets": [begin, end]}, "__metadata__"}
    | f64 payload (little-endian, row-major; offsets are bytes into it)
    | 8-byte blake2b digest of everything before the trailer

The metadata holds the ``kind`` ("gan" or "regressor") and, for a GAN, the
``condition_mode`` and ``iteration``; ``train`` adds its run: the ``cell``,
the cell's ``lambda_se`` and each config field as ``config.<field>``. A
loader names the metadata it expects, and the first field that differs
raises ContractError naming it. A resume expects the kind, condition
mode, cell, lambda_se and every config field but ``config.gan_iterations``
(a run may train further) and ``config.out_dir``. Against a template
state, a missing, unexpected or misshaped tensor is named the same way.
Versions 1 and 2 laid tensors out by position and are rejected.

Files are written to a temporary file beside the target and renamed into
place, so a reader never sees a partial file.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import struct

import numpy as np

from .errors import ContractError
from .hashing import fnv1a_64  # noqa: F401  (perfbench's tracing self-test checks this binding)

MAGIC = b"KGCK"
VERSION = 3
DIGEST_SIZE = 8
PREAMBLE = 16  # magic, version, header length


def write_atomic(path, data) -> None:
    """Write ``data`` (bytes, or text as UTF-8) to ``path`` all or nothing.

    The bytes go to ``<path>.<pid>.tmp``, which ``os.replace`` moves over
    the target; on any failure the temporary file is removed and the
    previous target is left as it was.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _digest(body: bytes) -> bytes:
    return hashlib.blake2b(body, digest_size=DIGEST_SIZE).digest()


def save_checkpoint(path, state: dict, metadata: dict) -> None:
    header, pos = {}, 0
    for name, arr in state.items():
        header[name] = {"shape": list(arr.shape), "data_offsets": [pos, pos + 8 * arr.size]}
        pos += 8 * arr.size
    header["__metadata__"] = metadata
    text = json.dumps(header, separators=(",", ":")).encode("utf-8")
    body = b"".join(
        [MAGIC, struct.pack("<IQ", VERSION, len(text)), text]
        + [np.ascontiguousarray(arr, dtype="<f8").tobytes() for arr in state.values()]
    )
    write_atomic(path, body + _digest(body))


def load_checkpoint(path, template: dict | None = None, expect: dict | None = None):
    """Returns (state, metadata).

    Each field of ``expect`` must equal the file's metadata, in order;
    with a ``template`` state the file must hold exactly its names and
    shapes. The arrays are writable views of one fresh copy of the payload.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < PREAMBLE + DIGEST_SIZE or blob[:4] != MAGIC:
        raise ContractError(f"{path} is not a checkpoint file")
    # checked before the digest: a version-1 file carries an FNV-1a trailer
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != VERSION:
        raise ContractError(f"unsupported checkpoint version {version}")
    body = memoryview(blob)[:-DIGEST_SIZE]  # a view: the payload is not copied twice
    if _digest(body) != blob[-DIGEST_SIZE:]:
        raise ContractError(f"{path} failed its content hash check")

    (size,) = struct.unpack_from("<Q", body, 8)
    start = PREAMBLE + size
    try:
        header = json.loads(bytes(body[PREAMBLE:start]))
        metadata = dict(header.pop("__metadata__"))
        flat = np.frombuffer(body, dtype="<f8", offset=start).astype(np.float64)
        state, pos = {}, 0
        for name, entry in header.items():
            begin, end = entry["data_offsets"]
            shape = tuple(entry["shape"])
            if begin != pos or end != begin + 8 * math.prod(shape):
                raise ContractError(f"{path}: tensor {name} has offsets {[begin, end]}")
            state[name] = flat[begin // 8 : end // 8].reshape(shape)
            pos = end
    except ContractError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError):
        raise ContractError(f"{path} has a malformed header") from None
    if pos != 8 * flat.size:
        raise ContractError(f"{path} has {8 * flat.size - pos} trailing bytes")

    for field, value in (expect or {}).items():
        if metadata.get(field) != value:
            raise ContractError(
                f"{path}: checkpoint has {field} {metadata.get(field)!r}, this run has {value!r}"
            )
    if template is not None:
        for name, arr in template.items():
            if name not in state:
                raise ContractError(f"{path}: tensor {name} is missing")
            if state[name].shape != arr.shape:
                raise ContractError(
                    f"{path}: tensor {name} has shape {state[name].shape}, expected {arr.shape}"
                )
        extra = sorted(state.keys() - template.keys())
        if extra:
            raise ContractError(f"{path}: unexpected tensor {extra[0]}")
    return state, metadata
