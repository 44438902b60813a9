"""Binary checkpoints of the value network.

Layout of version 2 (all integers little-endian):

    magic        9 bytes  b"POSERCKPT"
    version      u16
    step         u64
    n_dims       u16
    dims         n_dims * u32          layer sizes, input first
    parameters   float32               ``parameters()`` order, row-major
    crc32        u32                   over everything above

A checkpoint holds the network and its training step only: no optimizer
state, replay buffer or random streams, so training cannot be resumed from
it. A round trip restores the parameters bit for bit, so the network must
be float32. Version-1 files, which carried Adam's ``t``, ``m`` and ``v``
after the parameters, still load; their moments are checked by the CRC and
then skipped.
"""

from __future__ import annotations

import math
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import CorruptChecksum, VersionMismatch
from .network import QNetwork, param_shapes

MAGIC = b"POSERCKPT"
VERSION = 2
_HEADER = struct.Struct("<HQH")  # version, step, n_dims


def save_checkpoint(path: str | Path, net: QNetwork, step: int) -> None:
    if net.dtype != np.dtype(np.float32):
        raise ValueError("checkpointing requires a float32 network")
    dims = net.layer_sizes
    body = b"".join(
        [
            MAGIC,
            _HEADER.pack(VERSION, step, len(dims)),
            struct.pack(f"<{len(dims)}I", *dims),
            net.flat.astype("<f4", copy=False).tobytes(),
        ]
    )
    Path(path).write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


def load_checkpoint(path: str | Path) -> tuple[QNetwork, int, int]:
    """The network, its training step and the file's format version."""
    data = Path(path).read_bytes()
    header = len(MAGIC) + _HEADER.size
    if len(data) < header + 4:
        raise CorruptChecksum("checkpoint too short")
    body, crc_bytes = data[:-4], data[-4:]
    if zlib.crc32(body) & 0xFFFFFFFF != struct.unpack("<I", crc_bytes)[0]:
        raise CorruptChecksum("checksum mismatch")
    if body[: len(MAGIC)] != MAGIC:
        raise CorruptChecksum("bad magic bytes")
    version, step, n_dims = _HEADER.unpack_from(body, len(MAGIC))
    if version not in (1, VERSION):
        raise VersionMismatch(f"unknown checkpoint version {version}")
    if len(body) < header + 4 * n_dims:
        raise CorruptChecksum("checkpoint truncated")
    dims = struct.unpack_from(f"<{n_dims}I", body, header)
    if n_dims < 2 or min(dims) < 1:
        raise CorruptChecksum(f"checkpoint layer sizes {list(dims)}: need two or more, each at least 1")
    # sized before any array is built; version 1 adds Adam's t (u64), m and v
    start = header + 4 * n_dims
    n_values = sum(math.prod(shape) for shape in param_shapes(dims))
    extra = 8 + 8 * n_values if version == 1 else 0
    if len(body) - start != 4 * n_values + extra:
        raise CorruptChecksum(f"checkpoint length does not match its layer sizes {list(dims)}")

    flat = np.frombuffer(body, dtype="<f4", count=n_values, offset=start).astype(np.float32)
    if not np.isfinite(flat).all():
        raise CorruptChecksum("checkpoint holds a non-finite parameter")
    return QNetwork.from_flat(dims, flat), step, version
