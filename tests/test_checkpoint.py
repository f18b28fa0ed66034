"""Checkpoint format: bitwise round trips and corruption detection."""

import struct
import zlib

import numpy as np
import pytest

from siamcaps import checkpoint as ckpt
from siamcaps.models import ScnEncoder
from siamcaps.optim import OptimState, amsgrad_step
from siamcaps import autodiff as ad
from siamcaps.rng import SplitMix64

from test_models import TINY


def _sample_entries():
    r = SplitMix64(77)
    return [
        ("alpha", r.normal(12).reshape(3, 4)),
        ("beta/gamma", r.uniform(8).reshape(2, 2, 2)),
        ("scalar", np.array([3.141592653589793])),
        ("empty_name_ok" * 3, r.normal(5)),
        ("exact", np.array([[0.1, -0.0, np.pi], [1e-300, 1e300, -7.0]])),
    ]


def test_round_trip_bitwise():
    entries = _sample_entries()
    raw = ckpt.encode_tensors(entries)
    back = ckpt.decode_tensors(raw)
    assert [n for n, _ in back] == [n for n, _ in entries]
    for (_, a), (_, b) in zip(entries, back):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_header_layout():
    raw = ckpt.encode_tensors([("w", np.zeros((2, 3)))])
    assert raw[:8] == b"SCNCKPT1"
    version, count = struct.unpack("<HI", raw[8:14])
    assert version == 1 and count == 1
    (nlen,) = struct.unpack("<H", raw[14:16])
    assert raw[16:16 + nlen] == b"w"
    rank = raw[16 + nlen]
    assert rank == 2
    dims = struct.unpack("<2I", raw[17 + nlen:25 + nlen])
    assert dims == (2, 3)


def test_trailing_crc_matches_payload():
    raw = ckpt.encode_tensors(_sample_entries())
    (stored,) = struct.unpack("<I", raw[-4:])
    assert stored == zlib.crc32(raw[8:-4])


@pytest.mark.parametrize("at", [0, 7, 20, -5])
def test_flipped_payload_byte_detected(at):
    raw = bytearray(ckpt.encode_tensors(_sample_entries()))
    idx = at if at >= 0 else len(raw) - 4 + at  # -5 lands in payload tail
    idx = max(8, min(idx, len(raw) - 5))
    raw[idx] ^= 0x40
    with pytest.raises(ckpt.CheckpointError, match="checkpoint corrupt"):
        ckpt.decode_tensors(bytes(raw))


def test_bad_magic():
    raw = bytearray(ckpt.encode_tensors(_sample_entries()))
    raw[0] ^= 0xFF
    with pytest.raises(ckpt.CheckpointError, match="magic"):
        ckpt.decode_tensors(bytes(raw))


def test_truncated_file():
    raw = ckpt.encode_tensors(_sample_entries())
    with pytest.raises(ckpt.CheckpointError):
        ckpt.decode_tensors(raw[: len(raw) // 2])


def test_unknown_version_rejected():
    payload = struct.pack("<HI", 9, 0)
    raw = ckpt.MAGIC + payload + struct.pack("<I", zlib.crc32(payload))
    with pytest.raises(ckpt.CheckpointError, match="version"):
        ckpt.decode_tensors(raw)


def test_trailing_garbage_in_payload_rejected():
    payload = struct.pack("<HI", 1, 0) + b"xx"
    raw = ckpt.MAGIC + payload + struct.pack("<I", zlib.crc32(payload))
    with pytest.raises(ckpt.CheckpointError, match="corrupt"):
        ckpt.decode_tensors(raw)


def _train_one_step(enc, state, images):
    with ad.Graph():
        emb = enc.encode(ad.constant(images), training=True)
        loss = ad.mean(ad.square(emb))
        ad.backward(loss)
        amsgrad_step(list(enc.named_parameters()), state, alpha=0.01)


def test_encoder_state_round_trip(tmp_path):
    r = SplitMix64(5)
    images = r.uniform(2 * TINY["input_size"] ** 2).reshape(
        2, 1, TINY["input_size"], TINY["input_size"])
    enc = ScnEncoder(seed=3, **TINY)
    state = OptimState()
    _train_one_step(enc, state, images)  # populate buffers + moments
    path = str(tmp_path / "model.ckpt")
    ckpt.save_checkpoint(enc, state, path)

    enc2 = ScnEncoder(seed=999, **TINY)
    state2 = OptimState()
    ckpt.restore_checkpoint(enc2, state2, path)
    for (n1, t1), (n2, t2) in zip(enc.named_parameters(),
                                  enc2.named_parameters()):
        assert n1 == n2
        assert t1.data.tobytes() == t2.data.tobytes()
    for (n1, b1), (n2, b2) in zip(enc.named_buffers(), enc2.named_buffers()):
        assert n1 == n2
        assert b1.tobytes() == b2.tobytes()
    assert state2.t == state.t
    for name in state.m:
        assert state2.m[name].tobytes() == state.m[name].tobytes()
        assert state2.v_hat[name].tobytes() == state.v_hat[name].tobytes()

    out1 = enc.encode(ad.constant(images), training=False).data
    out2 = enc2.encode(ad.constant(images), training=False).data
    assert out1.tobytes() == out2.tobytes()


def test_restore_shape_mismatch_names_tensor(tmp_path):
    enc = ScnEncoder(seed=3, **TINY)
    path = str(tmp_path / "model.ckpt")
    ckpt.save_checkpoint(enc, None, path)
    other_cfg = dict(TINY, embed_dim=TINY["embed_dim"] + 1)
    enc2 = ScnEncoder(seed=3, **other_cfg)
    with pytest.raises(ckpt.CheckpointError, match="shape mismatch for"):
        ckpt.restore_checkpoint(enc2, None, path)


def test_restore_missing_tensor_named(tmp_path):
    enc = ScnEncoder(seed=3, **TINY)
    entries = [("model/" + n, t.data) for n, t in enc.named_parameters()][:-1]
    path = str(tmp_path / "partial.ckpt")
    with open(path, "wb") as fh:
        fh.write(ckpt.encode_tensors(entries))
    with pytest.raises(ckpt.CheckpointError, match="missing tensor"):
        ckpt.restore_checkpoint(enc, None, path)


def test_restore_per_dimension_primary_names_refused(tmp_path):
    # older checkpoints stored one primary conv per pose dimension
    enc = ScnEncoder(seed=3, **TINY)
    t = enc.primary.n_types
    entries = []
    for n, p in enc.named_parameters():
        if n.startswith("primary/"):
            part = n.split("/")[1]
            entries += [(f"model/primary/{dim}/{part}",
                         p.data[dim * t:(dim + 1) * t])
                        for dim in range(enc.primary.d)]
        else:
            entries.append(("model/" + n, p.data))
    path = str(tmp_path / "per_dim.ckpt")
    with open(path, "wb") as fh:
        fh.write(ckpt.encode_tensors(entries))
    with pytest.raises(ckpt.CheckpointError, match="'model/primary/kernel'"):
        ckpt.restore_checkpoint(enc, None, path)


def test_file_round_trip_bitwise(tmp_path):
    entries = _sample_entries()
    path = str(tmp_path / "t.ckpt")
    with open(path, "wb") as fh:
        fh.write(ckpt.encode_tensors(entries))
    loaded = ckpt.load_checkpoint(path)
    for name, arr in entries:
        assert loaded[name].tobytes() == arr.tobytes()


def test_failed_save_keeps_previous_file(tmp_path, monkeypatch):
    # a save that fails while writing or renaming must leave the last good
    # checkpoint loadable bitwise and no temp file behind
    r = SplitMix64(6)
    images = r.uniform(2 * TINY["input_size"] ** 2).reshape(
        2, 1, TINY["input_size"], TINY["input_size"])
    enc = ScnEncoder(seed=3, **TINY)
    state = OptimState()
    _train_one_step(enc, state, images)
    path = str(tmp_path / "model.ckpt")
    ckpt.save_checkpoint(enc, state, path)
    with open(path, "rb") as fh:
        good = fh.read()
    before = ckpt.load_checkpoint(path)
    _train_one_step(enc, state, images)  # the next save would differ

    def boom(*args, **kwargs):
        raise OSError("disk full")

    for target, name in ((ckpt, "encode_tensors"), (ckpt.os, "replace")):
        with monkeypatch.context() as m:
            m.setattr(target, name, boom)
            with pytest.raises(OSError, match="disk full"):
                ckpt.save_checkpoint(enc, state, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]
        with open(path, "rb") as fh:
            assert fh.read() == good
        after = ckpt.load_checkpoint(path)
        assert list(after) == list(before)
        for key, arr in before.items():
            assert after[key].tobytes() == arr.tobytes()
