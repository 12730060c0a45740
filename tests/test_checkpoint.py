"""Checkpoint container: digest check, version gate and atomic writes."""

import struct

import numpy as np
import pytest

from kggan import checkpoint
from kggan.checkpoint import KIND_GAN, load_checkpoint, save_checkpoint
from kggan.errors import ContractError
from kggan.hashing import fnv1a_64


@pytest.fixture
def tensors(rng):
    return [rng.standard_normal((3, 4)), rng.standard_normal(5), np.asarray([7.0])]


def test_flipped_payload_byte_fails_hash_check(tensors, tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, KIND_GAN, tensors, condition_mode="one_hot")
    blob = bytearray(path.read_bytes())
    blob[-20] ^= 0x01  # a payload byte, before the 8-byte trailer
    path.write_bytes(bytes(blob))
    with pytest.raises(ContractError, match="hash"):
        load_checkpoint(path)


def test_version_1_file_rejected(tensors, tmp_path):
    # the version-1 layout: same header and payload, FNV-1a trailer
    path = tmp_path / "v1.ckpt"
    save_checkpoint(path, KIND_GAN, tensors, condition_mode="one_hot")
    body = bytearray(path.read_bytes()[:-8])
    body[4:8] = struct.pack("<I", 1)
    path.write_bytes(bytes(body) + struct.pack("<Q", fnv1a_64(bytes(body))))
    with pytest.raises(ContractError, match="unsupported checkpoint version 1"):
        load_checkpoint(path)


def test_failed_write_keeps_previous_checkpoint(tensors, tmp_path, monkeypatch):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, KIND_GAN, tensors, condition_mode="one_hot")
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
        save_checkpoint(path, KIND_GAN, [t + 1.0 for t in tensors], condition_mode="one_hot")
    monkeypatch.undo()

    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["a.ckpt"]
    _, _, loaded = load_checkpoint(path)
    assert all(np.array_equal(a, b) for a, b in zip(loaded, tensors))
