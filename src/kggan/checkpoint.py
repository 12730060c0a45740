"""Checkpoints as one named state, plus the atomic writer every artifact uses.

A state maps names to float64 or float32 arrays (scalars are 0-d). The
metadata's ``kind`` says which state a file holds. A "gan" holds the 30
arrays training learned: the 13 parameters G.w1 ... D.v_proj; the 4
spectral.<D weight>.u vectors (each iteration's power step recomputes
sigma from them); and for each optimizer (adam_g over G, adam_d over D)
the second moments adam_g.v.<param>, 13 in all. There is no first
moment: at ``gan.BETA1`` = 0 it is the current gradient, which no later
step reads, so a file that stores adam_*.m.<param> is refused as
holding unexpected tensors. The rest is derived: the condition table
from the dataset's category table (``gan.condition_table``, which
``cli._build_model`` calls), and the iteration from the metadata, which
also gives both optimizers' Adam step number (iteration + 1). A
"regressor" holds E.w1 ... E.b3. A "dataset" holds float32 ``images``
[N, 3, S, S] and the category table ``embeddings`` [n_categories, d].
A GAN's arrays and a dataset's images are float32, since the GAN trains
in float32; a regressor's arrays and the category table are float64.

Layout (version 3, the safetensors layout):
    "KGCK" | u32 version | u64 header length
    | JSON header {name: {["dtype",] "shape", "data_offsets": [begin, end]}, "__metadata__"}
    | payload (little-endian, row-major; offsets are bytes into it)
    | 8-byte blake2b digest of everything before the trailer

An entry's ``dtype`` is "F32" (float32) or "F64" (float64); an entry
without one is F64. The writer stores a float32 array as F32, and any
other array as F64 with no ``dtype``, so an all-float64 state is written
byte for byte as it was before entries carried a dtype. Each tensor
begins at a multiple of 8 bytes, zero bytes padding the end of a tensor
whose size is not, so the payload is a whole number of 8-byte words and
every view of it is aligned. A load rejects an unknown dtype, and against
a template a dtype other than the template's, naming the tensor.

The metadata holds the ``kind`` and, as ``config.<field>``, the config
fields the contents depend on: a dataset's ``synthdata.DATASET_FIELDS``, a
regressor's ``regressor.EMBEDDER_FIELDS``. A GAN's holds its
``condition_mode`` and ``iteration``; ``train`` adds its run: the
``cell``, the cell's ``lambda_se`` and every config field but ``out_dir``.
A loader names the metadata it expects, and the first field that differs
raises ContractError naming it. A resume expects all of it but
``config.gan_iterations``, the one field a resume may change (a run may
train further). Against a template state, a missing, unexpected,
misshaped or other-dtype tensor is named the same way. Every load then
refuses a NaN or an infinity, naming its tensor and first such row
along axis 0. Versions 1 and 2 laid tensors out by position and are
rejected.

Files are written to a temporary file beside the target and renamed into
place, so a reader never sees a partial file. A save hashes and streams
each array's own buffer (only an array that is not contiguous in its
stored dtype is converted, on its own), so it never holds a copy of the
payload; a load reads the payload once, straight into the one buffer its
tensors are views of, so it holds one payload copy.
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
DTYPES = {"F64": np.dtype("<f8"), "F32": np.dtype("<f4")}  # a header entry's "dtype"
ALIGN = 8  # every tensor begins at a multiple of this many payload bytes


def write_atomic(path, data) -> None:
    """Write ``data`` to ``path`` all or nothing.

    ``data`` is bytes, text (written as UTF-8) or a sequence of buffers
    (bytes, memoryviews), which are streamed to the
    file one after another and never joined into one payload copy. The
    bytes go to ``<path>.<pid>.tmp``, which ``os.replace`` moves over the
    target; on any failure the temporary file is removed and the previous
    target is left as it was.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    if isinstance(data, (bytes, bytearray, memoryview)):
        data = (data,)
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in data:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def save_checkpoint(path, state: dict, metadata: dict) -> None:
    """Write ``state`` and ``metadata``, streaming each array's own buffer.

    A float32 array is stored as F32, any other array as F64.
    """
    header, chunks, pos = {}, [], 0
    for name, arr in state.items():
        tag = "F32" if arr.dtype == np.float32 else "F64"
        flat = np.ascontiguousarray(arr, DTYPES[tag]).reshape(-1)
        entry = {"shape": list(arr.shape), "data_offsets": [pos, pos + flat.nbytes]}
        header[name] = entry if tag == "F64" else {"dtype": tag, **entry}
        chunks.append(memoryview(flat).cast("B"))
        pad = -flat.nbytes % ALIGN
        if pad:
            chunks.append(bytes(pad))
        pos += flat.nbytes + pad
    header["__metadata__"] = metadata
    text = json.dumps(header, separators=(",", ":")).encode("utf-8")
    buffers = [MAGIC + struct.pack("<IQ", VERSION, len(text)), text, *chunks]
    digest = hashlib.blake2b(digest_size=DIGEST_SIZE)
    for buf in buffers:
        digest.update(buf)
    write_atomic(path, [*buffers, digest.digest()])


def load_checkpoint(path, template: dict | None = None, expect: dict | None = None):
    """Returns (state, metadata).

    Each field of ``expect`` must equal the file's metadata, in order;
    with a ``template`` state the file must hold exactly its names,
    shapes and dtypes. Then every value must be finite, or the first
    tensor holding a NaN or an infinity is named with its first such row
    along axis 0. The payload is read once, straight into one buffer,
    and the returned arrays are writable views of it, each in its
    entry's dtype: a load holds one payload copy. Lengths are checked
    against the file's size before anything of that size is allocated.
    """
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        preamble = fh.read(PREAMBLE)
        if file_size < PREAMBLE + DIGEST_SIZE or preamble[:4] != MAGIC:
            raise ContractError(f"{path} is not a checkpoint file")
        # checked before the digest: a version-1 file carries an FNV-1a trailer
        version, size = struct.unpack_from("<IQ", preamble, 4)
        if version != VERSION:
            raise ContractError(f"{path}: unsupported checkpoint version {version}")
        payload = file_size - PREAMBLE - size - DIGEST_SIZE
        if payload < 0:
            raise ContractError(f"{path}: header length {size} runs past the end of the file")
        if payload % ALIGN:
            raise ContractError(f"{path}: payload of {payload} bytes is not whole float64 values")
        text = fh.read(size)
        # allocated as 8-byte words, so the view at every tensor's offset is aligned
        raw = np.empty(payload // ALIGN, dtype="<f8").view(np.uint8)
        got = fh.readinto(raw)
        trailer = fh.read(DIGEST_SIZE)
    if len(text) != size or got != payload or len(trailer) != DIGEST_SIZE:
        raise ContractError(f"{path} is shorter than its size on opening")
    digest = hashlib.blake2b(preamble, digest_size=DIGEST_SIZE)
    digest.update(text)
    digest.update(raw)
    if digest.digest() != trailer:
        raise ContractError(f"{path} failed its content hash check")

    try:
        header = json.loads(text)
        metadata = dict(header.pop("__metadata__"))
        state, pos = {}, 0
        for name, entry in header.items():
            tag = entry.get("dtype", "F64")
            if tag not in DTYPES:
                raise ContractError(f"{path}: tensor {name} has unknown dtype {tag!r}")
            begin, end = entry["data_offsets"]
            shape = tuple(entry["shape"])
            if begin != pos or end != begin + DTYPES[tag].itemsize * math.prod(shape):
                raise ContractError(f"{path}: tensor {name} has offsets {[begin, end]}")
            state[name] = raw[begin:end].view(DTYPES[tag]).reshape(shape)
            pos = end + -end % ALIGN
    except ContractError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError):
        raise ContractError(f"{path} has a malformed header") from None
    if pos != payload:
        raise ContractError(f"{path} has {payload - pos} trailing bytes")

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
            if state[name].dtype != arr.dtype:
                raise ContractError(
                    f"{path}: tensor {name} has dtype {state[name].dtype}, expected {arr.dtype}"
                )
        extra = sorted(state.keys() - template.keys())
        if extra:
            raise ContractError(f"{path}: unexpected tensor {extra[0]}")
    for name, arr in state.items():
        finite = np.isfinite(np.atleast_1d(arr))
        if not finite.all():
            row = np.flatnonzero(~finite.reshape(len(finite), -1).all(axis=1))[0]
            raise ContractError(f"{path}: tensor {name} row {row} holds a non-finite value")
    return state, metadata
