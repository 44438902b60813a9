#!/usr/bin/env python3
"""Five-seed training sweep with single-expert baselines.

Trains the routing policy on the default synthetic world for each seed,
evaluates everything greedily on held-out prompts, and prints the
comparison table: per-seed returns, the pooled paired signed-rank test
against the strongest baseline, routing accuracy on editing steps, and
the loss-decile convergence diagnostics.
"""

import argparse
import json
import math
import sys
from pathlib import Path

from qroute.cli import run_guarded
from qroute.config import RunConfig, load_config
from qroute.experiment import HELDOUT_PROMPTS, SWEEP_SEEDS, render_experiment, run_learning_experiment


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", type=Path, default=None, help="base run config (JSON)")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(SWEEP_SEEDS))
    parser.add_argument("--prompts", type=int, default=HELDOUT_PROMPTS, help="held-out prompts per seed")
    parser.add_argument("--out", type=Path, default=None, help="write a JSON summary here")
    args = parser.parse_args()

    base = load_config(args.config) if args.config else RunConfig()
    result = run_learning_experiment(base, seeds=args.seeds, eval_prompt_count=args.prompts)
    print(render_experiment(result))

    if args.out:
        payload = {
            "seeds": args.seeds,
            "seeds_beating_best_baseline": result.seeds_beating_best,
            "pooled_wilcoxon": {"W": result.pooled_wilcoxon_w, "p": result.pooled_wilcoxon_p},
            "pooled_baseline": result.pooled_baseline_name,
            "routing_accuracy": result.routing_accuracy,
            # a ratio is NaN when a seed logged too few losses; JSON has no NaN
            "loss_decile_ratios": [r if math.isfinite(r) else None for r in result.loss_decile_ratios],
            "per_seed": [
                {
                    "seed": oc.seed,
                    "trained_return": oc.trained.mean_return,
                    "best_baseline": oc.best_baseline().name,
                    "best_baseline_return": oc.best_baseline().mean_return,
                    "oracle_return": oc.oracle.mean_return,
                    "random_return": oc.random.mean_return,
                }
                for oc in result.outcomes
            ],
        }
        args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"\nsummary written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(run_guarded(main))
