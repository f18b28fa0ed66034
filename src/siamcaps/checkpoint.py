"""Binary checkpoint format for named float64 tensors.

Layout (all integers little-endian):
  magic   8 bytes  "SCNCKPT1"
  payload:
    version       u16
    tensor count  u32
    per tensor:   name length u16, UTF-8 name, rank u8, dims u32 * rank,
                  float64 little-endian data
  crc32   u32 of the payload bytes

Order is preserved; loading a saved file reproduces every tensor bitwise.
Version 3 stores face/W in the capsule layer's [lower, d_in, upper, d_out]
order and every conv kernel as [O, kh, kw, C].  Older files are refused by
version, since a shape check cannot always tell the orders apart: version 1
holds face/W as [lower, upper, d_in, d_out] (the same shape when
upper == d_in), and versions 1 and 2 hold kernels as [O, C, kh, kw] (the
same shape when C == kh == kw).
"""

from __future__ import annotations

import io
import math
import os
import struct
import zlib

import numpy as np

MAGIC = b"SCNCKPT1"
VERSION = 3
CRC_CHUNK = 1 << 20  # bytes per read while checking a file's crc


class CheckpointError(ValueError):
    pass


def encode_tensors(entries: list) -> bytes:
    """Serialize [(name, array)] pairs to checkpoint bytes."""
    buf = io.BytesIO()
    _write_tensors(buf, entries)
    return buf.getvalue()


def _write_tensors(fh, entries: list) -> None:
    """Write [(name, array)] pairs to a binary file as checkpoint bytes, a
    piece at a time under a running crc, each array from its own memory."""
    crc = 0

    def put(piece) -> None:
        nonlocal crc
        fh.write(piece)
        crc = zlib.crc32(piece, crc)

    fh.write(MAGIC)
    put(struct.pack("<HI", VERSION, len(entries)))
    for name, arr in entries:
        arr = np.ascontiguousarray(arr, dtype="<f8")
        nb = name.encode("utf-8")
        if len(nb) > 0xFFFF:
            raise CheckpointError(f"tensor name too long: {name[:32]!r}...")
        if arr.ndim > 0xFF:
            raise CheckpointError(f"tensor rank {arr.ndim} too large")
        put(struct.pack(f"<H{len(nb)}sB{arr.ndim}I", len(nb), nb, arr.ndim,
                        *arr.shape))
        put(arr)
    fh.write(struct.pack("<I", crc))


def decode_tensors(raw: bytes) -> list:
    """Parse checkpoint bytes back to ordered [(name, array)] pairs."""
    return _read_tensors(io.BytesIO(raw))


def _read_tensors(fh) -> list:
    """Parse a checkpoint from a binary file, each tensor read straight into
    its own array, so loading holds the data once."""
    return [(name, _read_into(fh, offset, np.empty(dims, dtype="<f8")))
            for name, dims, offset in _read_index(fh)]


def _read_index(fh) -> list:
    """Check a checkpoint file and list its tensors as [(name, dims,
    offset)] in file order, offset being where the tensor's data starts.

    The CRC is checked over the whole payload first, a chunk at a time, so
    no size read from a corrupt file is trusted.  Then the headers are read,
    seeking past each tensor's data; no tensor data is read.
    """
    magic = fh.read(8)
    if magic != MAGIC:
        raise CheckpointError(f"bad checkpoint magic {magic!r}")
    end = fh.seek(0, os.SEEK_END) - 4  # the payload ends where the crc starts
    if end < 8:
        raise CheckpointError("checkpoint corrupt")
    fh.seek(8)
    crc = 0
    while fh.tell() < end:
        crc = zlib.crc32(fh.read(min(end - fh.tell(), CRC_CHUNK)), crc)
    if struct.unpack("<I", fh.read(4))[0] != crc:
        raise CheckpointError("checkpoint corrupt")
    fh.seek(8)

    def take(n: int) -> bytes:
        if fh.tell() + n > end:
            raise CheckpointError("checkpoint corrupt")
        return fh.read(n)

    version, count = struct.unpack("<HI", take(6))
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    index = []
    for _ in range(count):
        (nlen,) = struct.unpack("<H", take(2))
        name = take(nlen).decode("utf-8")
        (rank,) = struct.unpack("<B", take(1))
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        offset = fh.tell()
        data_end = offset + 8 * math.prod(dims)
        if data_end > end:
            raise CheckpointError("checkpoint corrupt")
        fh.seek(data_end)
        index.append((name, dims, offset))
    if fh.tell() != end:
        raise CheckpointError("checkpoint corrupt")
    return index


def _read_into(fh, offset: int, arr: np.ndarray) -> np.ndarray:
    """Read the float64 data at offset into arr and return arr.  The read
    goes straight into arr when it is a C-contiguous little-endian float64
    array, as every encoder array is on a little-endian host; otherwise
    through a temporary that numpy converts."""
    dst = arr
    if not (arr.flags.c_contiguous and arr.dtype == np.dtype("<f8")):
        dst = np.empty(arr.shape, dtype="<f8")
    fh.seek(offset)
    if fh.readinto(dst) != dst.nbytes:  # the file shrank after the crc
        raise CheckpointError("checkpoint corrupt")
    if dst is not arr:
        arr[...] = dst
    return arr


def save_checkpoint(encoder, optim_state, path: str) -> None:
    """Write model parameters, batchnorm buffers, and optimizer moments.

    The bytes stream to path + ".tmp" in the same directory, which then
    replaces path in one rename, so a failed save leaves the previous file
    intact and no temp file behind.  No fsync: power loss is out of scope.
    """
    entries = [("model/" + n, t.data) for n, t in encoder.named_parameters()]
    entries += [("buffer/" + n, b) for n, b in encoder.named_buffers()]
    if optim_state is not None:
        entries.append(("optim/t", np.array([float(optim_state.t)])))
        for n, _ in encoder.named_parameters():
            if n in optim_state.m:
                entries.append((f"optim/m/{n}", optim_state.m[n]))
                entries.append((f"optim/v/{n}", optim_state.v[n]))
                entries.append((f"optim/vhat/{n}", optim_state.v_hat[n]))
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            _write_tensors(fh, entries)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path: str) -> dict:
    with open(path, "rb") as fh:
        return dict(_read_tensors(fh))


def _checked(index: dict, key: str, shape: tuple) -> int:
    """The data offset of tensor key, which must have the given shape."""
    if key not in index:
        raise CheckpointError(f"checkpoint missing tensor {key!r}")
    dims, offset = index[key]
    if dims != shape:
        raise CheckpointError(
            f"shape mismatch for {key!r}: checkpoint "
            f"{list(dims)} vs model {list(shape)}")
    return offset


def restore_checkpoint(encoder, optim_state, path: str) -> None:
    """Load a checkpoint into an existing encoder (and optimizer state).

    All or nothing: the magic, version and CRC must hold, every model
    parameter and buffer must be present with matching shape, and so must
    the optimizer step count and, for each parameter that has any optimizer
    moment, all three moments with the parameter's shape.  The first bad
    tensor is reported by name.  Every check runs on the file's index
    before the first write; then each parameter and buffer is read straight
    into the encoder's own array, and each moment into a new array, so the
    restore holds no second copy of the model.  A file changed in place
    while it is restored is out of scope: saves replace a file by rename.
    """
    with open(path, "rb") as fh:
        index = {name: (dims, offset)
                 for name, dims, offset in _read_index(fh)}
        writes = [(t.data, _checked(index, "model/" + n, t.data.shape))
                  for n, t in encoder.named_parameters()]
        writes += [(b, _checked(index, "buffer/" + n, b.shape))
                   for n, b in encoder.named_buffers()]
        moments = {}
        restore_optim = optim_state is not None and "optim/t" in index
        if restore_optim:
            step = _checked(index, "optim/t", (1,))
            for n, t in encoder.named_parameters():
                keys = [f"optim/{kind}/{n}" for kind in ("m", "v", "vhat")]
                if any(k in index for k in keys):
                    moments[n] = (t.data.shape,
                                  [_checked(index, k, t.data.shape)
                                   for k in keys])
        for dst, offset in writes:
            _read_into(fh, offset, dst)
        if restore_optim:
            optim_state.t = int(_read_into(fh, step, np.empty(1))[0])
            for n, (shape, offsets) in moments.items():
                optim_state.m[n], optim_state.v[n], optim_state.v_hat[n] = (
                    _read_into(fh, offset, np.empty(shape))
                    for offset in offsets)
