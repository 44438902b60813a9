import struct
import zlib

import numpy as np
import pytest

from qroute.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from qroute.errors import CorruptChecksum, VersionMismatch
from qroute.network import AdamState, QNetwork

from conftest import all_rows


def trained_pair(tmp_path):
    net = QNetwork((16, 8, 8, 4), seed=5)
    adam = AdamState(net)
    # dirty the optimizer state so the round trip is non-trivial
    grads = all_rows([np.full_like(p, 0.01) for p in net.parameters()])
    for _ in range(3):
        adam.step(net, grads, lr=1e-3)
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, net, adam, step=777)
    return net, adam, path


def test_round_trip_bit_identical(tmp_path):
    net, adam, path = trained_pair(tmp_path)
    loaded_net, loaded_adam, step = load_checkpoint(path)
    assert step == 777
    assert loaded_net.layer_sizes == net.layer_sizes
    for a, b in zip(net.parameters(), loaded_net.parameters()):
        assert np.array_equal(a, b)
    assert loaded_adam.t == adam.t
    for a, b in zip(adam.m + adam.v, loaded_adam.m + loaded_adam.v):
        assert np.array_equal(a, b)


def test_round_trip_forward_bit_identical(tmp_path):
    net, _, path = trained_pair(tmp_path)
    loaded_net, _, _ = load_checkpoint(path)
    x = np.random.default_rng(0).normal(size=16).astype(np.float32)
    assert np.array_equal(net.forward(x), loaded_net.forward(x))


def test_save_then_save_is_byte_stable(tmp_path):
    net, adam, path = trained_pair(tmp_path)
    second = tmp_path / "again.ckpt"
    save_checkpoint(second, net, adam, step=777)
    assert path.read_bytes() == second.read_bytes()


def test_truncated_file_fails_checksum(tmp_path):
    _, _, path = trained_pair(tmp_path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(CorruptChecksum):
        load_checkpoint(path)


def test_flipped_byte_fails_checksum(tmp_path):
    _, _, path = trained_pair(tmp_path)
    data = bytearray(path.read_bytes())
    data[20] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptChecksum):
        load_checkpoint(path)


def test_bad_magic_rejected(tmp_path):
    _, _, path = trained_pair(tmp_path)
    data = bytearray(path.read_bytes())
    data[:4] = b"NOPE"
    body = bytes(data[:-4])
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    with pytest.raises(CorruptChecksum):
        load_checkpoint(path)


def test_unknown_version_rejected(tmp_path):
    _, _, path = trained_pair(tmp_path)
    data = bytearray(path.read_bytes())
    offset = len(MAGIC)
    data[offset : offset + 2] = struct.pack("<H", 42)
    body = bytes(data[:-4])
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    with pytest.raises(VersionMismatch):
        load_checkpoint(path)


def test_float64_network_refused(tmp_path):
    net = QNetwork((8, 4, 4, 2), seed=0, dtype=np.float64)
    with pytest.raises(ValueError):
        save_checkpoint(tmp_path / "bad.ckpt", net, AdamState(net), step=0)


def test_resumed_optimizer_continues_bit_identically(tmp_path):
    # rows 0-3 get gradients before the save and none after: a resumed
    # optimizer that forgot they were touched would stop decaying them
    net = QNetwork((16, 8, 8, 4), seed=6)
    adam = AdamState(net)
    rng = np.random.default_rng(4)

    def grads(rows):
        out = []
        for p in net.parameters():
            g = np.zeros_like(p)
            if p.ndim == 2:
                g[rows] = rng.normal(size=(len(rows), p.shape[1]))
            out.append(g)
        return all_rows(out)

    for _ in range(5):
        adam.step(net, grads([0, 1, 2, 3]), lr=1e-2)
    path = tmp_path / "mid.ckpt"
    save_checkpoint(path, net, adam, step=5)
    loaded_net, loaded_adam, _ = load_checkpoint(path)
    for _ in range(6):
        g = grads([4, 5])
        adam.step(net, g, lr=1e-2)
        loaded_adam.step(loaded_net, g, lr=1e-2)
        for a, b in zip(
            net.parameters() + adam.m + adam.v,
            loaded_net.parameters() + loaded_adam.m + loaded_adam.v,
        ):
            assert np.array_equal(a.view(np.uint32), b.view(np.uint32))
