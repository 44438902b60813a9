import struct
import zlib

import numpy as np
import pytest

from qroute.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from qroute.errors import CorruptChecksum, VersionMismatch
from qroute.network import AdamState, QNetwork

from conftest import all_rows


def trained_pair(tmp_path):
    net = QNetwork((16, 8, 8, 4), seed=5)
    adam = AdamState(net)
    # train a few steps so the saved parameters are not the initial ones
    grads = all_rows([np.full_like(p, 0.01) for p in net.parameters()])
    for _ in range(3):
        adam.step(net, grads, lr=1e-3)
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, net, step=777)
    return net, path


def header_size(net):
    return len(MAGIC) + struct.calcsize("<HQH") + 4 * len(net.layer_sizes)


def test_round_trip_bit_identical(tmp_path):
    net, path = trained_pair(tmp_path)
    loaded_net, step, version = load_checkpoint(path)
    assert (step, version) == (777, VERSION) == (777, 2)
    assert loaded_net.layer_sizes == net.layer_sizes
    for a, b in zip(net.parameters(), loaded_net.parameters()):
        assert np.array_equal(a.view(np.uint32), b.view(np.uint32))
    # header, the parameters and the CRC: no optimizer state
    assert path.stat().st_size == header_size(net) + 4 * net.flat.size + 4


def test_round_trip_forward_bit_identical(tmp_path):
    net, path = trained_pair(tmp_path)
    loaded_net, _, _ = load_checkpoint(path)
    x = np.random.default_rng(0).normal(size=16).astype(np.float32)
    assert np.array_equal(net.forward(x), loaded_net.forward(x))


def test_save_then_save_is_byte_stable(tmp_path):
    net, path = trained_pair(tmp_path)
    second = tmp_path / "again.ckpt"
    save_checkpoint(second, net, step=777)
    assert path.read_bytes() == second.read_bytes()


def test_truncated_file_fails_checksum(tmp_path):
    _, path = trained_pair(tmp_path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(CorruptChecksum):
        load_checkpoint(path)


def test_flipped_byte_fails_checksum(tmp_path):
    _, path = trained_pair(tmp_path)
    data = bytearray(path.read_bytes())
    data[20] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptChecksum):
        load_checkpoint(path)


def test_bad_magic_rejected(tmp_path):
    _, path = trained_pair(tmp_path)
    data = bytearray(path.read_bytes())
    data[:4] = b"NOPE"
    body = bytes(data[:-4])
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    with pytest.raises(CorruptChecksum):
        load_checkpoint(path)


def test_unknown_version_rejected(tmp_path):
    _, path = trained_pair(tmp_path)
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
        save_checkpoint(tmp_path / "bad.ckpt", net, step=0)


def crc_sealed(body):
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def version_1_body(net, step):
    """A version-1 file's body: the parameters, then Adam's t, m and v."""
    dims = net.layer_sizes
    parameters = net.flat.astype("<f4").tobytes()
    moments = np.arange(2 * net.flat.size, dtype="<f4").tobytes()
    return (
        MAGIC
        + struct.pack("<HQH", 1, step, len(dims))
        + struct.pack(f"<{len(dims)}I", *dims)
        + parameters
        + struct.pack("<Q", 3)
        + moments
    )


def test_version_1_file_loads_its_network(tmp_path):
    net, _ = trained_pair(tmp_path)
    path = tmp_path / "v1.ckpt"
    path.write_bytes(crc_sealed(version_1_body(net, step=41)))
    loaded_net, step, version = load_checkpoint(path)
    assert (step, version) == (41, 1)
    assert loaded_net.layer_sizes == net.layer_sizes
    assert loaded_net.flat.tobytes() == net.flat.tobytes()
    # the CRC still covers the skipped moments
    data = bytearray(path.read_bytes())
    data[-8] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptChecksum, match="checksum"):
        load_checkpoint(path)


def test_version_1_file_without_its_moments_rejected(tmp_path):
    net, _ = trained_pair(tmp_path)
    body = version_1_body(net, step=41)
    path = tmp_path / "v1_cut.ckpt"
    path.write_bytes(crc_sealed(body[: -4 * 2 * net.flat.size]))
    with pytest.raises(CorruptChecksum, match="length"):
        load_checkpoint(path)


def test_infinite_parameter_rejected(tmp_path):
    # an all-NaN network is refused through the CLI in test_harness
    net, _ = trained_pair(tmp_path)
    net.biases[-1][2] = -np.inf
    path = tmp_path / "bad.ckpt"
    save_checkpoint(path, net, step=1)
    with pytest.raises(CorruptChecksum, match="non-finite"):
        load_checkpoint(path)
