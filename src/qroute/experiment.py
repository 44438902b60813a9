"""The headline experiment: train across a seed sweep, evaluate greedily on
held-out prompts, compare against every single-expert baseline with paired
signed-rank statistics, and check the routing/convergence diagnostics."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .config import RunConfig
from .evaluate import PolicyEval, baseline_single_expert, evaluate, paired_returns
from .policies import GreedyPolicy, OraclePolicy, RandomPolicy
from .simworld import generate_corpus
from .stats import wilcoxon_signed_rank
from .train import TrainResult, train

HELDOUT_SEED_OFFSET = 971  # held-out prompts never overlap the training stream
#: The sweep's defaults, for ``run_learning_experiment`` and its script:
#: the seeds, and the held-out prompts each seed is evaluated on.
SWEEP_SEEDS = (1, 2, 3, 4, 5)
HELDOUT_PROMPTS = 100


@dataclass
class SeedOutcome:
    seed: int
    train_result: TrainResult
    trained: PolicyEval
    baselines: list[PolicyEval]
    random: PolicyEval
    oracle: PolicyEval

    def best_baseline(self) -> PolicyEval:
        return max(self.baselines, key=lambda b: b.mean_return)

    def beats_best_baseline(self) -> bool:
        return self.trained.mean_return > self.best_baseline().mean_return


@dataclass
class ExperimentResult:
    outcomes: list[SeedOutcome]
    pooled_baseline_name: str
    pooled_wilcoxon_p: float
    pooled_wilcoxon_w: float
    seeds_beating_best: int
    routing_accuracy: Optional[float]
    loss_decile_ratios: list[float]

    @property
    def n_seeds(self) -> int:
        return len(self.outcomes)


def _loss_decile_ratio(result: TrainResult) -> float:
    """Mean loss over the last tenth of training steps relative to the first
    tenth (steps without an update contribute nothing)."""
    n = result.config.total_steps
    tenth = max(1, n // 10)
    first = [m.loss for m in result.metrics if m.step <= tenth and m.loss is not None]
    last = [m.loss for m in result.metrics if m.step > n - tenth and m.loss is not None]
    if not first or not last:
        return float("nan")
    return float(np.mean(last) / np.mean(first))


def run_seed(config: RunConfig, eval_prompt_count: int) -> SeedOutcome:
    """Train one seed, then roll each held-out prompt once under the trained
    policy, every single-expert baseline, random and the oracle, all paired
    on the same per-prompt seeds.

    The held-out prompts are drawn before training, so a prompt count the
    corpus refuses costs no training run; their stream is independent of
    the training streams, so the order changes no number."""
    heldout = generate_corpus(
        config.seed + HELDOUT_SEED_OFFSET,
        eval_prompt_count,
        config.difficulty_min,
        config.difficulty_max,
        id_start=10_000,
    )
    result = train(config)
    env = config.environment()
    es = config.seed + 1

    trained = evaluate(env, GreedyPolicy(result.net), heldout, 1, es, name="trained_greedy")
    baselines = [baseline_single_expert(env, spec.index, heldout, 1, es) for spec in env.registry.list()]
    rand = evaluate(env, RandomPolicy(), heldout, 1, es, name="random")
    oracle = evaluate(env, OraclePolicy(env.registry), heldout, 1, es, name="oracle")
    return SeedOutcome(
        seed=config.seed,
        train_result=result,
        trained=trained,
        baselines=baselines,
        random=rand,
        oracle=oracle,
    )


def run_learning_experiment(
    base_config: Optional[RunConfig] = None,
    seeds: Sequence[int] = SWEEP_SEEDS,
    eval_prompt_count: int = HELDOUT_PROMPTS,
) -> ExperimentResult:
    base = base_config if base_config is not None else RunConfig()
    # every seed's config is checked before the first one trains
    configs = [replace(base, seed=seed).validate() for seed in seeds]
    outcomes = [run_seed(config, eval_prompt_count) for config in configs]

    # pooled comparison target: the baseline with the best pooled mean return
    pooled_means: dict[str, list[float]] = {}
    for oc in outcomes:
        for b in oc.baselines:
            pooled_means.setdefault(b.name, []).extend(
                ep.episode_return for ep in b.episodes
            )
    best_name = max(pooled_means, key=lambda k: float(np.mean(pooled_means[k])))

    pairs: list[tuple[float, float]] = []
    for oc in outcomes:
        baseline = next(b for b in oc.baselines if b.name == best_name)
        pairs += paired_returns(oc.trained.episodes, baseline.episodes)
    res = wilcoxon_signed_rank(pairs)

    i2i_hits = sum(oc.trained.routing[0] for oc in outcomes)
    i2i_total = sum(oc.trained.routing[1] for oc in outcomes)
    routing = i2i_hits / i2i_total if i2i_total else None

    return ExperimentResult(
        outcomes=outcomes,
        pooled_baseline_name=best_name,
        pooled_wilcoxon_p=res.pvalue,
        pooled_wilcoxon_w=res.statistic,
        seeds_beating_best=sum(1 for oc in outcomes if oc.beats_best_baseline()),
        routing_accuracy=routing,
        loss_decile_ratios=[_loss_decile_ratio(oc.train_result) for oc in outcomes],
    )


def render_experiment(result: ExperimentResult) -> str:
    lines = []
    lines.append(
        f"seeds beating best single expert: {result.seeds_beating_best}/{result.n_seeds}"
    )
    lines.append(
        f"pooled signed-rank vs {result.pooled_baseline_name}: "
        f"W={result.pooled_wilcoxon_w:.1f} p={result.pooled_wilcoxon_p:.3e}"
    )
    if result.routing_accuracy is not None:
        lines.append(f"routing accuracy on editing steps: {100 * result.routing_accuracy:.1f}%")
    ratios = ", ".join(f"{r:.3f}" for r in result.loss_decile_ratios)
    lines.append(f"final/first loss decile ratios: {ratios}")
    lines.append("")
    lines.append(f"{'seed':>5} {'trained':>10} {'oracle':>10} {'random':>10}  best baseline")
    for oc in result.outcomes:
        best = oc.best_baseline()
        lines.append(
            f"{oc.seed:>5} {oc.trained.mean_return:>10.4f} "
            f"{oc.oracle.mean_return:>10.4f} {oc.random.mean_return:>10.4f}  "
            f"{best.mean_return:.4f} ({best.name})"
        )
    return "\n".join(lines)
