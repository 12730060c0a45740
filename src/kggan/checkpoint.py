"""Binary checkpoints: shape header, little-endian f64 payload, blake2b trailer.

Layout:
    "KGCK" | u32 version | u32 kind | [u32 condition_mode, GAN kind only]
    | u32 n_tensors | per tensor: u32 ndim, u32 dims...
    | f64 payload (little-endian, row-major, tensors in caller order)
    | 8-byte blake2b digest of everything before the trailer

Version 2 replaced version 1's FNV-1a trailer with blake2b, which runs
in C; version-1 files are rejected as unsupported.

A checkpoint is written to a temporary file in the target's directory
and renamed into place, so a reader never sees a partial file.

Tensor order is fixed by each model's save routine; the loader validates
shapes against a freshly built model of the same configuration.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import struct

import numpy as np

from .errors import ContractError
from .hashing import fnv1a_64

MAGIC = b"KGCK"
VERSION = 2
DIGEST_SIZE = 8
KIND_REGRESSOR = 0
KIND_GAN = 1

COND_MODE_CODES = {"semantic_embedding": 0, "one_hot": 1}
COND_MODE_NAMES = {v: k for k, v in COND_MODE_CODES.items()}


def params_hash(arrays) -> int:
    """Order-sensitive content hash of a list of float64 arrays."""
    h = 0xCBF29CE484222325
    for arr in arrays:
        h ^= fnv1a_64(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def _digest(body: bytes) -> bytes:
    return hashlib.blake2b(body, digest_size=DIGEST_SIZE).digest()


def save_checkpoint(path, kind: int, tensors, condition_mode: str | None = None) -> None:
    header = MAGIC + struct.pack("<II", VERSION, kind)
    if kind == KIND_GAN:
        if condition_mode not in COND_MODE_CODES:
            raise ContractError(f"unknown condition mode {condition_mode!r}")
        header += struct.pack("<I", COND_MODE_CODES[condition_mode])
    header += struct.pack("<I", len(tensors))
    for arr in tensors:
        header += struct.pack("<I", arr.ndim)
        header += struct.pack(f"<{arr.ndim}I", *arr.shape)

    payload = b"".join(np.ascontiguousarray(arr, dtype="<f8").tobytes() for arr in tensors)
    body = header + payload
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(body)
            fh.write(_digest(body))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """Returns (kind, condition_mode_or_None, list of float64 arrays)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 20 or blob[:4] != MAGIC:
        raise ContractError(f"{path} is not a checkpoint file")
    # checked before the digest: a version-1 file carries an FNV-1a trailer
    version, kind = struct.unpack_from("<II", blob, 4)
    if version != VERSION:
        raise ContractError(f"unsupported checkpoint version {version}")
    body, trailer = blob[:-DIGEST_SIZE], blob[-DIGEST_SIZE:]
    if _digest(body) != trailer:
        raise ContractError(f"{path} failed its content hash check")

    pos = 12
    condition_mode = None
    if kind == KIND_GAN:
        (code,) = struct.unpack_from("<I", body, pos)
        pos += 4
        if code not in COND_MODE_NAMES:
            raise ContractError(f"unknown condition mode code {code}")
        condition_mode = COND_MODE_NAMES[code]
    (n_tensors,) = struct.unpack_from("<I", body, pos)
    pos += 4
    shapes = []
    for _ in range(n_tensors):
        (ndim,) = struct.unpack_from("<I", body, pos)
        pos += 4
        dims = struct.unpack_from(f"<{ndim}I", body, pos)
        pos += 4 * ndim
        shapes.append(tuple(dims))

    tensors = []
    for shape in shapes:
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(body, dtype="<f8", count=count, offset=pos).astype(np.float64)
        pos += 8 * count
        tensors.append(arr.reshape(shape))
    if pos != len(body):
        raise ContractError(f"{path} has {len(body) - pos} trailing bytes")
    return kind, condition_mode, tensors
