"""Greedy evaluation, single-expert baselines, and comparison reports.

A report aggregates per-policy rollout statistics (return, oracle
fraction, length, the category-by-expert choice matrix) and, for the
trained policy, paired signed-rank p-values and win rates against each
baseline on the same prompts with the same per-prompt seeds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import TAXONOMY, CanvasState, Prompt, TaskCategory
from .environment import Environment
from .errors import AllZeroDifferences, DomainError
from .experts import ExpertRegistry
from .logs import EpisodeRecord
from .policies import Policy, SingleExpertPolicy, episode_seed, run_episode
from .simworld import best_expert
from .stats import mean_stderr, win_rate, wilcoxon_signed_rank

CATEGORY_NAMES = tuple(c.value for c in TAXONOMY)


@dataclass
class PolicyEval:
    name: str
    episodes: list[EpisodeRecord]
    mean_return: float
    stderr_return: float
    mean_oracle: float
    mean_length: float
    choice_matrix: np.ndarray  # categories x experts, step counts
    per_expert_mean_raw: dict[int, float]
    routing: tuple[int, int]  # (hits, total) of routing_stats

    @property
    def routing_accuracy(self) -> Optional[float]:
        hits, total = self.routing
        return hits / total if total else None


def paired_returns(
    a: Sequence[EpisodeRecord], b: Sequence[EpisodeRecord]
) -> list[tuple[float, float]]:
    """(a return, b return) of each episode key, in key order.

    The key is (prompt id, seed): two policies rolled over the same prompt
    with the same randomness. A key twice in one list, or in only one of
    the lists, raises DomainError.
    """

    def by_key(episodes: Sequence[EpisodeRecord]) -> dict[tuple[int, int], float]:
        returns: dict[tuple[int, int], float] = {}
        for ep in episodes:
            key = (ep.prompt.id, ep.seed)
            if key in returns:
                raise DomainError(f"two episodes with prompt id {key[0]} and seed {key[1]}")
            returns[key] = ep.episode_return
        return returns

    ra, rb = by_key(a), by_key(b)
    unmatched = sorted(ra.keys() ^ rb.keys())
    if unmatched:
        prompt_id, seed = unmatched[0]
        raise DomainError(
            f"{len(unmatched)} episodes have no partner, "
            f"the first with prompt id {prompt_id} and seed {seed}"
        )
    return [(ra[k], rb[k]) for k in sorted(ra)]


def routing_stats(
    episodes: Sequence[EpisodeRecord], registry: ExpertRegistry
) -> tuple[int, int]:
    """(hits, total) over editing steps: a hit is an action equal to the
    ground-truth best expert for the step's command category."""
    editing = registry.legal_mask(CanvasState.symbolic())[1]
    hits = 0
    total = 0
    best: dict[str, int] = {}  # each category's best expert, found once
    for ep in episodes:
        for s in ep.steps:
            if s.mask != editing:
                continue
            if s.category not in best:
                best[s.category] = best_expert(registry, TaskCategory(s.category))
            total += 1
            if s.expert == best[s.category]:
                hits += 1
    return hits, total


def summarize_policy(
    name: str, episodes: list[EpisodeRecord], registry: ExpertRegistry
) -> PolicyEval:
    n_experts = len(registry)
    # plain Python counters (a float64 sum adds as numpy's would)
    rows = {name: [0] * n_experts for name in CATEGORY_NAMES}
    raw_sum = [0.0] * n_experts
    raw_count = [0] * n_experts
    for ep in episodes:
        for s in ep.steps:
            rows[s.category][s.expert] += 1
            raw_sum[s.expert] += s.raw
            raw_count[s.expert] += 1
    matrix = np.array([rows[name] for name in CATEGORY_NAMES], dtype=np.int64)
    per_expert = {i: raw_sum[i] / raw_count[i] for i in range(n_experts) if raw_count[i]}
    mean_ret, se_ret = mean_stderr([ep.episode_return for ep in episodes])
    mean_oracle = float(np.mean([ep.final_oracle_fraction for ep in episodes]))
    mean_len = float(np.mean([ep.length for ep in episodes]))
    return PolicyEval(
        name=name,
        episodes=episodes,
        mean_return=mean_ret,
        stderr_return=se_ret,
        mean_oracle=mean_oracle,
        mean_length=mean_len,
        choice_matrix=matrix,
        per_expert_mean_raw=per_expert,
        routing=routing_stats(episodes, registry),
    )


def evaluate(
    env: Environment,
    policy: Policy,
    prompts: Sequence[Prompt],
    episodes_per_prompt: int = 1,
    seed: int = 0,
    name: str = "policy",
) -> PolicyEval:
    """Greedy rollouts over a prompt set; an empty prompt set is refused,
    since there is nothing to score."""
    if not prompts:
        raise DomainError("no prompts to evaluate")
    if episodes_per_prompt < 1:
        raise DomainError(f"episodes per prompt must be >= 1: {episodes_per_prompt}")
    episodes: list[EpisodeRecord] = []
    eid = 0
    for prompt in prompts:
        for rep in range(episodes_per_prompt):
            episodes.append(
                run_episode(
                    env,
                    policy,
                    prompt,
                    seed=episode_seed(seed, prompt.id, rep),
                    episode_id=eid,
                )
            )
            eid += 1
    return summarize_policy(name, episodes, env.registry)


def baseline_single_expert(
    env: Environment,
    index: int,
    prompts: Sequence[Prompt],
    episodes_per_prompt: int = 1,
    seed: int = 0,
) -> PolicyEval:
    policy = SingleExpertPolicy(index=index, registry=env.registry)
    spec = env.registry.spec(index)
    return evaluate(
        env,
        policy,
        prompts,
        episodes_per_prompt,
        seed,
        name=f"expert_{index}_{spec.name}_{spec.modality.value}",
    )


@dataclass
class EvalReport:
    policies: list[PolicyEval]
    wilcoxon: dict[str, tuple[float, float]] = field(default_factory=dict)
    win_rates: dict[str, tuple[float, float]] = field(default_factory=dict)

    def to_payload(self) -> dict:
        return {
            "policies": [
                {
                    "name": p.name,
                    "episodes": len(p.episodes),
                    "mean_return": p.mean_return,
                    "stderr_return": p.stderr_return,
                    "mean_oracle_fraction": p.mean_oracle,
                    "mean_length": p.mean_length,
                    "routing_accuracy": p.routing_accuracy,
                    "per_expert_mean_raw": {str(k): v for k, v in sorted(p.per_expert_mean_raw.items())},
                    "choice_matrix": {
                        "categories": list(CATEGORY_NAMES),
                        "counts": p.choice_matrix.tolist(),
                    },
                }
                for p in self.policies
            ],
            # W is NaN when every paired difference is zero; JSON has no NaN
            "wilcoxon_vs_baselines": {
                k: {"W": w if math.isfinite(w) else None, "p": pv} for k, (w, pv) in sorted(self.wilcoxon.items())
            },
            "win_rates_vs_baselines": {
                k: {"rate": r, "stderr": se} for k, (r, se) in sorted(self.win_rates.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), indent=2, sort_keys=True)


def build_report(main: PolicyEval, baselines: Sequence[PolicyEval]) -> EvalReport:
    """Attach paired statistics of the main policy against each baseline."""
    report = EvalReport(policies=[main, *baselines])
    for b in baselines:
        pairs = paired_returns(main.episodes, b.episodes)
        if pairs:
            try:
                res = wilcoxon_signed_rank(pairs)
                report.wilcoxon[b.name] = (res.statistic, res.pvalue)
            except AllZeroDifferences:
                report.wilcoxon[b.name] = (float("nan"), 1.0)
            report.win_rates[b.name] = win_rate([x > y for x, y in pairs])
    return report


def render_report(report: EvalReport) -> str:
    lines: list[str] = []
    lines.append(f"{'policy':<32} {'return':>16} {'oracle':>8} {'len':>6} {'route%':>7}")
    for p in report.policies:
        route = f"{100 * p.routing_accuracy:.1f}" if p.routing_accuracy is not None else "-"
        lines.append(
            f"{p.name:<32} {p.mean_return:>9.4f} ±{p.stderr_return:<5.4f} "
            f"{p.mean_oracle:>8.3f} {p.mean_length:>6.2f} {route:>7}"
        )
    if report.wilcoxon:
        lines.append("")
        lines.append(f"{'vs baseline':<32} {'W':>10} {'p':>12} {'win rate':>18}")
        for name in sorted(report.wilcoxon):
            w, p = report.wilcoxon[name]
            rate, se = report.win_rates[name]
            lines.append(f"{name:<32} {w:>10.1f} {p:>12.3e} {rate:>10.2f} ± {se:.2f}")
    return "\n".join(lines)
