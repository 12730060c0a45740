"""Checkpoint container: digest check and version gate."""

import struct

import numpy as np
import pytest

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
