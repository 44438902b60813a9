#!/usr/bin/env python3
"""Print the synthetic world's skill landscape and observed per-expert scores.

Three tables: the configured per-category means (who is best at what);
the critic's raw rubric score per (category, expert) over one training
run; and that score per expert across all steps. The observed tables do
not mirror the configured means. The rubric's content subscore counts
every prompt atom the canvas meets, and a generator's single success meets
many atoms at once, so the text-to-image experts (configured mean 3.30
everywhere) average 5.92-6.99 (seed 0, 1000 steps), above every editing
specialist (4.73-6.08).
"""

import argparse
import sys
from collections import defaultdict

import numpy as np

from qroute.cli import run_guarded
from qroute.config import RunConfig
from qroute.core import TaskCategory
from qroute.simworld import best_expert
from qroute.train import train


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--steps", type=int, default=1000)
    args = parser.parse_args()

    cfg = RunConfig(seed=args.seed, total_steps=args.steps)
    registry = cfg.build_registry()

    specs = registry.list()
    print("configured skill means (rows: category, columns: expert index)")
    header = " " * 25 + " ".join(f"{s.index:>5}" for s in specs)
    print(header)
    for cat in TaskCategory:
        row = " ".join(f"{s.profile.mean_for(cat):>5.2f}" for s in specs)
        best = best_expert(registry, cat)
        print(f"{cat.value:<25}{row}   best={best}")

    print("\nobserved mean critic score by (category, expert) over one training run")
    result = train(cfg)
    sums = defaultdict(float)
    counts = defaultdict(int)
    for ep in result.episodes:
        for s in ep.steps:
            sums[(s.category, s.expert)] += s.raw
            counts[(s.category, s.expert)] += 1
    print(header)
    for cat in TaskCategory:
        cells = []
        for s in specs:
            k = (cat.value, s.index)
            cells.append(f"{sums[k] / counts[k]:>5.2f}" if counts[k] else "    -")
        print(f"{cat.value:<25}{' '.join(cells)}")

    per_expert = defaultdict(list)
    for ep in result.episodes:
        for s in ep.steps:
            per_expert[s.expert].append(s.raw)
    print("\naverage critic score per expert across all steps")
    for idx in sorted(per_expert):
        spec = registry.spec(idx)
        scores = per_expert[idx]
        print(f"  {idx:>2} {spec.name:<18} {spec.modality.value}  {np.mean(scores):5.2f}  (n={len(scores)})")
    return 0


if __name__ == "__main__":
    sys.exit(run_guarded(main))
