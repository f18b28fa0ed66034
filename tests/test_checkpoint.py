"""Checkpoint format: bitwise round trips and corruption detection."""

import struct
import tracemalloc
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
    assert version == ckpt.VERSION == 3 and count == 1
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
    payload = struct.pack("<HI", ckpt.VERSION, 0) + b"xx"
    raw = ckpt.MAGIC + payload + struct.pack("<I", zlib.crc32(payload))
    with pytest.raises(ckpt.CheckpointError, match="corrupt"):
        ckpt.decode_tensors(raw)


def test_encode_and_load_hold_the_data_once(tmp_path):
    # encoding writes array data straight into the output bytes, and loading
    # reads it straight into the arrays: neither holds a second whole copy
    big = np.arange(2.0 ** 20)
    entries = [("big", big), ("small", np.ones(3))]
    path = tmp_path / "t.ckpt"
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        raw = ckpt.encode_tensors(entries)
        encode_peak = tracemalloc.get_traced_memory()[1] - start
        path.write_bytes(raw)
        del raw
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        loaded = ckpt.load_checkpoint(str(path))
        load_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert encode_peak < 1.5 * big.nbytes
    assert load_peak < 1.5 * big.nbytes
    assert loaded["big"].tobytes() == big.tobytes()
    assert loaded["small"].tobytes() == np.ones(3).tobytes()


def test_restore_reads_into_the_encoder_in_place(tmp_path):
    # a model-only restore checks the file's index, then reads each tensor
    # straight into the encoder's own array: it allocates no copy of the
    # model, only the crc pass's chunk and the index
    cfg = dict(TINY, input_size=100, conv_channels=16, primary_types=16,
               face_caps=32, face_d=16)
    enc = ScnEncoder(seed=3, **cfg)
    path = str(tmp_path / "model.ckpt")
    ckpt.save_checkpoint(enc, None, path)
    enc2 = ScnEncoder(seed=4, **cfg)
    arrays = [t.data for _, t in enc2.named_parameters()]
    param_bytes = sum(a.nbytes for a in arrays)
    assert param_bytes > 20 * ckpt.CRC_CHUNK
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ckpt.restore_checkpoint(enc2, None, path)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * param_bytes
    for (_, t), (_, t2), a in zip(enc.named_parameters(),
                                  enc2.named_parameters(), arrays):
        assert t2.data is a
        assert t2.data.tobytes() == t.data.tobytes()


def _train_one_step(enc, state, images):
    with ad.Graph():
        emb = enc.encode(ad.Tensor(images), training=True)
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

    out1 = enc.encode(ad.Tensor(images), training=False).data
    out2 = enc2.encode(ad.Tensor(images), training=False).data
    assert out1.tobytes() == out2.tobytes()


def test_saved_file_is_the_encoded_bytes(tmp_path):
    # save streams the header pieces and the array data to the file: they
    # are the bytes encode_tensors lays out for the same entries
    images = SplitMix64(7).uniform(2 * TINY["input_size"] ** 2).reshape(
        2, 1, TINY["input_size"], TINY["input_size"])
    enc = ScnEncoder(seed=3, **TINY)
    state = OptimState()
    _train_one_step(enc, state, images)
    path = str(tmp_path / "model.ckpt")
    ckpt.save_checkpoint(enc, state, path)
    entries = list(ckpt.load_checkpoint(path).items())
    names = ["model/" + n for n, _ in enc.named_parameters()]
    assert [n for n, _ in entries[:len(names)]] == names
    assert "optim/t" in dict(entries)
    with open(path, "rb") as fh:
        assert fh.read() == ckpt.encode_tensors(entries)


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


def test_version_1_refused_even_when_face_w_shape_matches(tmp_path,
                                                         monkeypatch):
    # version 1 stored face/W as [lower, upper, d_in, d_out]; with
    # upper == d_in that is today's shape too, so only the version tells
    cfg = dict(TINY, primary_d=TINY["face_caps"])
    enc = ScnEncoder(seed=3, **cfg)
    _, d_in, n_upper, _ = enc.face.W.shape
    assert n_upper == d_in
    path = str(tmp_path / "v1.ckpt")
    monkeypatch.setattr(ckpt, "VERSION", 1)
    ckpt.save_checkpoint(enc, None, path)
    monkeypatch.undo()
    enc2 = ScnEncoder(seed=4, **cfg)
    before = [t.data.copy() for _, t in enc2.named_parameters()]
    with pytest.raises(ckpt.CheckpointError,
                       match="unsupported checkpoint version 1"):
        ckpt.restore_checkpoint(enc2, None, path)
    for (_, t), want in zip(enc2.named_parameters(), before):
        assert np.array_equal(t.data, want)


def test_version_2_refused_even_when_kernel_shapes_match(tmp_path,
                                                        monkeypatch):
    # version 2 stored conv kernels as [O, C, kh, kw]; with C == kh == kw
    # the primary kernel has today's [O, kh, kw, C] shape too, so only the
    # version tells
    cfg = dict(TINY, conv_channels=9)
    enc = ScnEncoder(seed=3, **cfg)
    kernel = enc.primary.conv.kernel.data
    assert kernel.shape[1:] == kernel.transpose(0, 3, 1, 2).shape[1:]
    path = str(tmp_path / "v2.ckpt")
    monkeypatch.setattr(ckpt, "VERSION", 2)
    ckpt.save_checkpoint(enc, None, path)
    monkeypatch.undo()
    enc2 = ScnEncoder(seed=4, **cfg)
    before = [t.data.copy() for _, t in enc2.named_parameters()]
    with pytest.raises(ckpt.CheckpointError,
                       match="unsupported checkpoint version 2"):
        ckpt.restore_checkpoint(enc2, None, path)
    for (_, t), want in zip(enc2.named_parameters(), before):
        assert np.array_equal(t.data, want)


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
        if hasattr(args[0], "write"):  # the temp file: fail partway
            args[0].write(ckpt.MAGIC)
        raise OSError("disk full")

    for target, name in ((ckpt, "_write_tensors"), (ckpt.os, "replace")):
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


def _snapshot(enc, state):
    return ([t.data.copy() for _, t in enc.named_parameters()],
            [b.copy() for _, b in enc.named_buffers()],
            state.t,
            [{k: a.copy() for k, a in d.items()}
             for d in (state.m, state.v, state.v_hat)])


def _assert_bitwise(snap_a, snap_b):
    params_a, buffers_a, t_a, moments_a = snap_a
    params_b, buffers_b, t_b, moments_b = snap_b
    assert t_a == t_b
    for a, b in zip(params_a + buffers_a, params_b + buffers_b):
        assert a.tobytes() == b.tobytes()
    for da, db in zip(moments_a, moments_b):
        assert da.keys() == db.keys()
        assert all(da[k].tobytes() == db[k].tobytes() for k in da)


def _wrong_shape(a):
    return np.zeros(a.shape[:-1] + (a.shape[-1] + 1,))


@pytest.mark.parametrize("key,damage,message", [
    ("model/fc/weight", _wrong_shape, "shape mismatch for 'model/fc/weight'"),
    ("buffer/bn1/running_var", None,
     "missing tensor 'buffer/bn1/running_var'"),
    ("optim/t", lambda a: np.zeros(2), "shape mismatch for 'optim/t'"),
    ("optim/v/fc/bias", None, "missing tensor 'optim/v/fc/bias'"),
    ("optim/vhat/conv1/kernel", _wrong_shape,
     "shape mismatch for 'optim/vhat/conv1/kernel'"),
], ids=["param_shape", "buffer_missing", "step_shape", "moment_missing",
        "moment_shape"])
def test_refused_restore_changes_nothing(tmp_path, key, damage, message):
    # the bad tensor sits after parameters that an in-order restore would
    # already have overwritten; a refused restore must leave the encoder
    # and the optimizer state bitwise as they were
    r = SplitMix64(8)
    images = r.uniform(4 * TINY["input_size"] ** 2).reshape(
        4, 1, TINY["input_size"], TINY["input_size"])
    enc, state = ScnEncoder(seed=3, **TINY), OptimState()
    _train_one_step(enc, state, images[:2])
    _train_one_step(enc, state, images[:2])
    path = str(tmp_path / "damaged.ckpt")
    ckpt.save_checkpoint(enc, state, path)
    entries = ckpt.load_checkpoint(path)
    if damage is None:
        del entries[key]
    else:
        entries[key] = damage(entries[key])
    with open(path, "wb") as fh:
        fh.write(ckpt.encode_tensors(list(entries.items())))

    enc2, state2 = ScnEncoder(seed=4, **TINY), OptimState()
    _train_one_step(enc2, state2, images[2:])
    before = _snapshot(enc2, state2)
    with pytest.raises(ckpt.CheckpointError, match=message):
        ckpt.restore_checkpoint(enc2, state2, path)
    _assert_bitwise(_snapshot(enc2, state2), before)
