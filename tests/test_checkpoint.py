"""Checkpoint container: digest check, version gate, header checks and
atomic writes."""

import hashlib
import json
import struct

import numpy as np
import pytest

from kggan import checkpoint
from kggan import semantics as sem
from kggan import synthdata as sd
from kggan.checkpoint import load_checkpoint, save_checkpoint
from kggan.errors import ContractError
from kggan.hashing import fnv1a_64


@pytest.fixture
def tensors(rng):
    return {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal(5), "c": np.asarray(7.0)}


def test_flipped_payload_byte_fails_hash_check(tensors, tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, tensors, {"kind": "test"})
    blob = bytearray(path.read_bytes())
    blob[-20] ^= 0x01  # a payload byte, before the 8-byte trailer
    path.write_bytes(bytes(blob))
    with pytest.raises(ContractError, match="hash"):
        load_checkpoint(path)


def test_version_1_file_rejected(tensors, tmp_path):
    # version 1 began with the same magic and version word, FNV-1a trailer
    path = tmp_path / "v1.ckpt"
    save_checkpoint(path, tensors, {"kind": "test"})
    body = bytearray(path.read_bytes()[:-8])
    body[4:8] = struct.pack("<I", 1)
    path.write_bytes(bytes(body) + struct.pack("<Q", fnv1a_64(bytes(body))))
    with pytest.raises(ContractError, match="unsupported checkpoint version 1"):
        load_checkpoint(path)


def test_version_2_file_rejected(tensors, tmp_path):
    # the version-2 layout: kind, condition-mode code, shapes by position
    body = b"KGCK" + struct.pack("<III", 2, 1, 1) + struct.pack("<I", len(tensors))
    for arr in tensors.values():
        body += struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape)
    body += b"".join(arr.astype("<f8").tobytes() for arr in tensors.values())
    path = tmp_path / "v2.ckpt"
    path.write_bytes(body + hashlib.blake2b(body, digest_size=8).digest())
    with pytest.raises(ContractError, match="unsupported checkpoint version 2"):
        load_checkpoint(path)


def test_round_trip_keeps_names_shapes_and_metadata(tensors, tmp_path):
    path = tmp_path / "a.ckpt"
    metadata = {"kind": "test", "lambda_se": 0.1, "config.batch_size": 16}
    save_checkpoint(path, tensors, metadata)
    state, loaded = load_checkpoint(path, template=tensors, expect={"kind": "test"})
    assert loaded == metadata
    assert list(state) == list(tensors)
    assert all(np.array_equal(state[k], tensors[k]) and state[k].flags.writeable for k in tensors)
    with pytest.raises(ContractError, match="lambda_se 0.1, this run has 0.2"):
        load_checkpoint(path, expect={"kind": "test", "lambda_se": 0.2})


@pytest.mark.parametrize(
    "damage",
    ["not json", json.dumps({"a": {"shape": [3, 4], "data_offsets": [0, 96]}})],
    ids=["garbage", "no_metadata"],
)
def test_malformed_header_rejected(tensors, tmp_path, damage):
    text = damage.encode()
    body = b"KGCK" + struct.pack("<IQ", 3, len(text)) + text + tensors["a"].tobytes()
    path = tmp_path / "bad.ckpt"
    path.write_bytes(body + hashlib.blake2b(body, digest_size=8).digest())
    with pytest.raises(ContractError, match="malformed header"):
        load_checkpoint(path)


def _writers():
    """name -> (write(path, version), load(path)) for every atomic artifact."""
    specs = sd.make_category_specs(3, 2)
    embeddings = sem.build_embeddings(specs, dim=4)
    return {
        "checkpoint": (
            lambda path, k: save_checkpoint(path, {"w": np.full(3, float(k))}, {"kind": "test"}),
            load_checkpoint,
        ),
        "blob": (
            lambda path, k: sd.save_blob(path, sd.build_dataset(specs, 2, 8, seed=k)),
            sd.load_blob,
        ),
        "manifest": (
            lambda path, k: sd.save_manifest(path, sd.build_dataset(specs, 2, 8, seed=k), [f"v{k}"]),
            sd.load_manifest,
        ),
        "descriptions": (
            lambda path, k: sd.save_descriptions(path, specs, [f"v{k}"]),
            lambda path: path.read_text(encoding="utf-8"),
        ),
        "embeddings": (
            lambda path, k: sem.save_embeddings(path, embeddings, [f"v{k}"]),
            sem.load_embeddings,
        ),
    }


@pytest.mark.parametrize("writer", list(_writers()))
def test_failed_write_keeps_previous_checkpoint(tmp_path, monkeypatch, writer):
    write, load = _writers()[writer]
    path = tmp_path / "a.out"
    write(path, 1)
    before = path.read_bytes()

    class DiskFull:
        """A file that takes half of the first write, then fails."""

        def __init__(self, name, mode):
            self._fh = open(name, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()

        def write(self, data):
            self._fh.write(data[: len(data) // 2])
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(checkpoint, "open", DiskFull, raising=False)
    with pytest.raises(OSError, match="No space"):
        write(path, 2)
    monkeypatch.undo()

    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["a.out"]
    load(path)
