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
Version 2 stores face/W in the capsule layer's [lower, d_in, upper, d_out]
order.  A version-1 file holds it as [lower, upper, d_in, d_out], which a
shape check cannot tell apart when upper == d_in, so it is refused by
version.
"""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np

MAGIC = b"SCNCKPT1"
VERSION = 2


class CheckpointError(ValueError):
    pass


def encode_tensors(entries: list) -> bytes:
    """Serialize [(name, array)] pairs to checkpoint bytes."""
    parts = [struct.pack("<HI", VERSION, len(entries))]
    for name, arr in entries:
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        nb = name.encode("utf-8")
        if len(nb) > 0xFFFF:
            raise CheckpointError(f"tensor name too long: {name[:32]!r}...")
        if arr.ndim > 0xFF:
            raise CheckpointError(f"tensor rank {arr.ndim} too large")
        parts.append(struct.pack("<H", len(nb)))
        parts.append(nb)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.astype("<f8").tobytes())
    payload = b"".join(parts)
    return MAGIC + payload + struct.pack("<I", zlib.crc32(payload))


def decode_tensors(raw: bytes) -> list:
    """Parse checkpoint bytes back to ordered [(name, array)] pairs."""
    if raw[:8] != MAGIC:
        raise CheckpointError(f"bad checkpoint magic {raw[:8]!r}")
    if len(raw) < 8 + 4:
        raise CheckpointError("checkpoint corrupt")
    payload, (crc,) = raw[8:-4], struct.unpack("<I", raw[-4:])
    if zlib.crc32(payload) != crc:
        raise CheckpointError("checkpoint corrupt")
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(payload):
            raise CheckpointError("checkpoint corrupt")
        out = payload[pos:pos + n]
        pos += n
        return out

    version, count = struct.unpack("<HI", take(6))
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    entries = []
    for _ in range(count):
        (nlen,) = struct.unpack("<H", take(2))
        name = take(nlen).decode("utf-8")
        (rank,) = struct.unpack("<B", take(1))
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        size = int(np.prod(dims)) if rank else 1
        arr = np.frombuffer(take(8 * size), dtype="<f8").reshape(dims).copy()
        entries.append((name, arr))
    if pos != len(payload):
        raise CheckpointError("checkpoint corrupt")
    return entries


def save_checkpoint(encoder, optim_state, path: str) -> None:
    """Write model parameters, batchnorm buffers, and optimizer moments.

    The bytes go to path + ".tmp" in the same directory, which then
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
            fh.write(encode_tensors(entries))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path: str) -> dict:
    with open(path, "rb") as fh:
        return dict(decode_tensors(fh.read()))


def restore_checkpoint(encoder, optim_state, path: str) -> None:
    """Load a checkpoint into an existing encoder (and optimizer state).

    Every model parameter and buffer must be present with matching shape;
    the first mismatch is reported by name.
    """
    tensors = load_checkpoint(path)
    for name, t in encoder.named_parameters():
        key = "model/" + name
        if key not in tensors:
            raise CheckpointError(f"checkpoint missing tensor {key!r}")
        if tensors[key].shape != t.data.shape:
            raise CheckpointError(
                f"shape mismatch for {key!r}: checkpoint "
                f"{list(tensors[key].shape)} vs model {list(t.data.shape)}")
        t.data[...] = tensors[key]
    for name, buf in encoder.named_buffers():
        key = "buffer/" + name
        if key not in tensors:
            raise CheckpointError(f"checkpoint missing tensor {key!r}")
        if tensors[key].shape != buf.shape:
            raise CheckpointError(
                f"shape mismatch for {key!r}: checkpoint "
                f"{list(tensors[key].shape)} vs model {list(buf.shape)}")
        buf[...] = tensors[key]
    if optim_state is not None and "optim/t" in tensors:
        optim_state.t = int(tensors["optim/t"][0])
        for name, t in encoder.named_parameters():
            mk = f"optim/m/{name}"
            if mk in tensors:
                optim_state.m[name] = tensors[mk].copy()
                optim_state.v[name] = tensors[f"optim/v/{name}"].copy()
                optim_state.v_hat[name] = tensors[f"optim/vhat/{name}"].copy()
