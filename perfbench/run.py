#!/usr/bin/env python3
"""qroute benchmark: one process, two workloads of the public API.

    python3 perfbench/run.py --workload {train,sweep} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout: the program is imported from
``src/``, and the run exits 2 without a result when the sources are
missing. The seed makes every input; the program only receives them. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. README.md in this
directory describes the workloads, the metrics and reference figures.
"""

import time

T_START = time.perf_counter()  # set-up time counts the imports from here

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train", "sweep")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="qroute benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qroute" / "__init__.py").is_file():
        print(f"error: no qroute sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench  # imports numpy and qroute

    return bench.run(args, import_s=time.perf_counter() - T_START)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
