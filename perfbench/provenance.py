"""Provenance printed beside every result: machine facts, the BLAS thread
setting in effect, and the hashes that bit-exactness claims are read from.

Run directly to regenerate the reference hashes:

    python3 perfbench/provenance.py

It trains ``RunConfig(seed=s)`` for seeds 1 and 12, writes the run directory
under ``perfbench/out/`` and prints the parameter hash (SHA-256 over the
float32 little-endian bytes of ``net.parameters()`` in order) and the
SHA-256 of each artifact.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import sys
from pathlib import Path

import numpy as np

SEEDS = (1, 12)  # the seeds whose hashes bit-exactness claims compare
ARTIFACTS = ("checkpoint.ckpt", "episodes.jsonl", "metrics.jsonl", "summary.json")

# OpenBLAS exports its thread query under a build-dependent name.
_BLAS_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def parameter_hash(parameters) -> str:
    h = hashlib.sha256()
    for p in parameters:
        h.update(np.ascontiguousarray(p, dtype="<f4").tobytes())
    return h.hexdigest()


def artifact_hashes(out_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in ARTIFACTS}


def blas_threads() -> str:
    """Threads OpenBLAS will use, asked of the loaded library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in _BLAS_THREAD_QUERIES:
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                query.argtypes = []
                return str(query())
    return "unknown"


def machine() -> dict[str, str]:
    return {
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from qroute.config import RunConfig
    from qroute.train import train

    print(machine())
    for seed in SEEDS:
        out = Path(__file__).resolve().parent / "out" / f"hashes-seed{seed}"
        result = train(RunConfig(seed=seed), out_dir=out)
        print(f"seed {seed} parameters {parameter_hash(result.net.parameters())}")
        for name, digest in artifact_hashes(out).items():
            print(f"seed {seed} {name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
