"""Checkpoint container: digest check, version gate, header checks,
atomic streaming writes and one-copy reads."""

import hashlib
import json
import re
import struct
import tracemalloc

import numpy as np
import pytest

from kggan import checkpoint
from kggan import semantics as sem
from kggan import synthdata as sd
from kggan.checkpoint import load_checkpoint, save_checkpoint
from kggan.config import ExperimentConfig
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


def test_float32_tensor_of_odd_size_round_trips_beside_float64(rng, tmp_path):
    """An F32 tensor of 15 values is padded to 64 bytes, so the F64 tensor
    after it begins 8-byte aligned; every tensor comes back bit for bit."""
    state = {
        "a": rng.standard_normal(3),
        "odd": rng.standard_normal((3, 5)).astype(np.float32),
        "b": rng.standard_normal((2, 2)),
        "c": np.asarray(7.0),
    }
    path = tmp_path / "mixed.ckpt"
    save_checkpoint(path, state, {"kind": "test"})
    blob = path.read_bytes()
    (size,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + size])
    assert header["odd"] == {"dtype": "F32", "shape": [3, 5], "data_offsets": [24, 84]}
    assert header["b"] == {"shape": [2, 2], "data_offsets": [88, 120]}
    assert len(blob) == 16 + size + 128 + 8
    loaded, _ = load_checkpoint(path, template=state)
    for name, arr in state.items():
        assert loaded[name].dtype == arr.dtype and loaded[name].shape == arr.shape, name
        assert loaded[name].flags.aligned and loaded[name].flags.writeable, name
        assert loaded[name].tobytes() == arr.tobytes(), name


@pytest.mark.parametrize("stored, expected", [(np.float32, np.float64), (np.float64, np.float32)])
def test_dtype_other_than_the_templates_rejected_naming_both(rng, tmp_path, stored, expected):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, {"w": rng.standard_normal(5).astype(stored)}, {"kind": "test"})
    message = f"{path}: tensor w has dtype {np.dtype(stored)}, expected {np.dtype(expected)}"
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        load_checkpoint(path, template={"w": np.zeros(5, expected)})


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

    def config(k):
        return ExperimentConfig(
            n_categories=3, images_per_category=2, image_size=8, descriptions_per_category=2,
            embed_dim=4, data_seed=k,
        )

    return {
        "checkpoint": (
            lambda path, k: save_checkpoint(path, {"w": np.full(3, float(k))}, {"kind": "test"}),
            load_checkpoint,
        ),
        "dataset": (
            lambda path, k: sd.save_dataset(
                path, sd.build_dataset(specs, 2, 8, seed=k), embeddings, config(k)
            ),
            lambda path: sd.load_dataset(path, config(1)),
        ),
        "descriptions": (
            lambda path, k: sd.save_descriptions(path, specs, [f"v{k}"]),
            lambda path: path.read_text(encoding="utf-8"),
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


# ---------------------------------------------------------------------------
# streaming writes and one-copy reads


def join_save_checkpoint(path, state, metadata):
    """The writer before streaming: every tensor's bytes joined, then hashed.
    A float32 array is an F32 entry, zero-padded to a multiple of 8 bytes;
    any other array an F64 entry with no ``dtype``."""
    header, blobs, pos = {}, [], 0
    for name, arr in state.items():
        f32 = arr.dtype == np.float32
        blob = np.ascontiguousarray(arr, dtype="<f4" if f32 else "<f8").tobytes()
        entry = {"shape": list(arr.shape), "data_offsets": [pos, pos + len(blob)]}
        header[name] = {"dtype": "F32", **entry} if f32 else entry
        blobs.append(blob + bytes(-len(blob) % 8))
        pos += len(blobs[-1])
    header["__metadata__"] = metadata
    text = json.dumps(header, separators=(",", ":")).encode("utf-8")
    body = b"".join([b"KGCK", struct.pack("<IQ", 3, len(text)), text] + blobs)
    path.write_bytes(body + hashlib.blake2b(body, digest_size=8).digest())


def test_streamed_files_equal_joined_files(rng, tmp_path):
    from kggan import gan
    from kggan.optim import AdamState

    model = gan.GanModel(
        image_size=8, cond_dim=4, condition_mode=gan.CONDITION_SEMANTIC, rng=rng,
        z_dim=16, g_hidden=128, d_hidden=128, feat_dim=64,
    )
    opts = [
        AdamState.for_params(ps, learning_rate=2e-4, beta1=0.0, beta2=0.9)
        for ps in (model.generator_params(), model.discriminator_params())
    ]
    odd = {
        "transposed": rng.standard_normal((3, 5)).T,
        "strided": rng.standard_normal(9)[::2],
        "float16": rng.standard_normal(4).astype(np.float16),
        "integer": np.arange(6).reshape(2, 3),
        "empty": np.zeros((0, 3)),
        "scalar": np.asarray(2.5),
        "odd_float32": rng.standard_normal(3).astype(np.float32),
    }
    for i, state in enumerate([gan.gan_state(model, *opts), odd]):
        save_checkpoint(tmp_path / f"{i}.stream", state, {"kind": "test"})
        join_save_checkpoint(tmp_path / f"{i}.join", state, {"kind": "test"})
        assert (tmp_path / f"{i}.stream").read_bytes() == (tmp_path / f"{i}.join").read_bytes()


MIB = 1 << 20


def traced_peak(fn, *args):
    """Peak bytes traced while ``fn(*args)`` runs, its result included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def big_state(rng):
    """5.25 MiB: seven 128 x 768 tensors, the size of the bench-config GAN's."""
    return {f"w{i}": rng.standard_normal((128, 768)) for i in range(7)}


def test_save_and_load_hold_at_most_one_payload(big_state, tmp_path):
    path = tmp_path / "big.ckpt"
    payload = sum(arr.nbytes for arr in big_state.values())
    assert traced_peak(save_checkpoint, path, big_state, {"kind": "test"}) < MIB // 2
    assert traced_peak(load_checkpoint, path, big_state) <= payload + MIB // 2
    state, _ = load_checkpoint(path, big_state)
    assert all(np.array_equal(state[k], big_state[k]) for k in big_state)


def _damaged(blob, damage):
    """A damaged copy of a checkpoint's bytes and the error it must raise."""
    blob = bytearray(blob)
    if damage == "header_past_eof":
        struct.pack_into("<Q", blob, 8, 1 << 40)
        return blob, "header length 1099511627776 runs past the end of the file"
    if damage == "truncated_trailer":
        return blob[:-5], "payload of .* bytes is not whole float64 values"
    if damage == "truncated_payload":
        return blob[: len(blob) - 8 * 1000], "failed its content hash check"
    if damage == "version_7":
        struct.pack_into("<I", blob, 4, 7)
        return blob, r"big\.ckpt: unsupported checkpoint version 7"
    return blob[:-8] + b"\0\0\0" + blob[-8:], "payload of .* bytes is not whole float64 values"


@pytest.mark.parametrize(
    "damage", ["header_past_eof", "truncated_trailer", "truncated_payload", "odd_payload", "version_7"]
)
def test_damaged_lengths_rejected_before_a_payload_is_allocated(big_state, tmp_path, damage):
    # the header is trusted only once the digest checks, so a payload cut
    # by whole float64s is read (no more than the file holds) and then
    # fails the digest; every other length is rejected from the file size
    path = tmp_path / "big.ckpt"
    save_checkpoint(path, big_state, {"kind": "test"})
    blob, message = _damaged(path.read_bytes(), damage)
    path.write_bytes(bytes(blob))

    def load():
        with pytest.raises(ContractError, match=message):
            load_checkpoint(path)

    bound = len(blob) if damage == "truncated_payload" else 0
    assert traced_peak(load) < bound + MIB // 2
