"""Binary checkpoints for the value network and its optimizer state.

Layout (all integers little-endian):

    magic        9 bytes  b"POSERCKPT"
    version      u16
    step         u64
    n_dims       u16
    dims         n_dims * u32          layer sizes, input first
    weights/biases per layer           float32, row-major
    adam t       u64
    adam m, v    same order/shape as parameters, float32
    crc32        u32                   over everything above

Round-trips restore parameters, moments and the step counter bit for bit,
so the network must be float32 to be checkpointable without loss.
"""

from __future__ import annotations

import math
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import CorruptChecksum, VersionMismatch
from .network import AdamState, QNetwork, param_shapes

MAGIC = b"POSERCKPT"
VERSION = 1


def save_checkpoint(path: str | Path, net: QNetwork, adam: AdamState, step: int) -> None:
    if net.dtype != np.dtype(np.float32):
        raise ValueError("checkpointing requires a float32 network")
    chunks: list[bytes] = [MAGIC, struct.pack("<H", VERSION), struct.pack("<Q", step)]
    dims = net.layer_sizes
    chunks.append(struct.pack("<H", len(dims)))
    chunks.append(struct.pack(f"<{len(dims)}I", *dims))
    for p in net.parameters():
        chunks.append(np.ascontiguousarray(p, dtype="<f4").tobytes())
    chunks.append(struct.pack("<Q", adam.t))
    for m in adam.m:
        chunks.append(np.ascontiguousarray(m, dtype="<f4").tobytes())
    for v in adam.v:
        chunks.append(np.ascontiguousarray(v, dtype="<f4").tobytes())
    body = b"".join(chunks)
    crc = zlib.crc32(body) & 0xFFFFFFFF
    Path(path).write_bytes(body + struct.pack("<I", crc))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CorruptChecksum("checkpoint truncated")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def f32_array(self, shape: tuple[int, ...]) -> np.ndarray:
        raw = self.take(4 * math.prod(shape))
        return np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float32)


def load_checkpoint(path: str | Path) -> tuple[QNetwork, AdamState, int]:
    data = Path(path).read_bytes()
    if len(data) < len(MAGIC) + 2 + 8 + 4:
        raise CorruptChecksum("checkpoint too short")
    body, crc_bytes = data[:-4], data[-4:]
    expected = struct.unpack("<I", crc_bytes)[0]
    if zlib.crc32(body) & 0xFFFFFFFF != expected:
        raise CorruptChecksum("checksum mismatch")
    r = _Reader(body)
    if r.take(len(MAGIC)) != MAGIC:
        raise CorruptChecksum("bad magic bytes")
    version = r.u16()
    if version != VERSION:
        raise VersionMismatch(f"unknown checkpoint version {version}")
    step = r.u64()
    n_dims = r.u16()
    dims = tuple(struct.unpack(f"<{n_dims}I", r.take(4 * n_dims)))
    if n_dims < 2 or min(dims) < 1:
        raise CorruptChecksum(f"checkpoint layer sizes {list(dims)}: need two or more, each at least 1")
    shapes = param_shapes(dims)
    # parameters, then adam t, m and v: sized before any array is built
    n_values = sum(math.prod(shape) for shape in shapes)
    if len(body) - r.pos != 4 * n_values + 8 + 2 * 4 * n_values:
        raise CorruptChecksum(f"checkpoint length does not match its layer sizes {list(dims)}")

    params = [r.f32_array(shape) for shape in shapes]
    net = QNetwork.from_parameters(params[0::2], params[1::2])
    adam = AdamState(net)
    adam.t = r.u64()
    adam.m = [r.f32_array(shape) for shape in shapes]
    adam.v = [r.f32_array(shape) for shape in shapes]
    return net, adam, step
