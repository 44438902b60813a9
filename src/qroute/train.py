"""Training driver: episodes over a sampled prompt stream, each rolled by
the shared episode runner with a learner hook that makes one value-network
update per environment step and refreshes the target periodically.

All randomness flows from the config seed through named child streams, so
two runs with the same config produce byte-identical logs, metrics and
checkpoints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .agent import ReplayBuffer, Transition, epsilon_at, select_action, train_batch
from .checkpoint import save_checkpoint
from .config import RunConfig
from .embedder import EMBED_DIM, embed
from .logs import EpisodeRecord, write_episode_log, write_lines
from .policies import run_episode
from .network import HIDDEN_WIDTHS, AdamState, QNetwork
from .simworld import generate_corpus

CHECKPOINT_NAME = "checkpoint.ckpt"
EPISODES_NAME = "episodes.jsonl"
METRICS_NAME = "metrics.jsonl"
SUMMARY_NAME = "summary.json"


@dataclass
class StepMetric:
    step: int
    episode: int
    epsilon: float
    reward: float
    loss: Optional[float]
    synced: bool


@dataclass
class TrainResult:
    config: RunConfig
    net: QNetwork
    episodes: list[EpisodeRecord]
    metrics: list[StepMetric]
    out_dir: Optional[Path] = None

    @property
    def losses(self) -> list[float]:
        return [m.loss for m in self.metrics if m.loss is not None]

    @property
    def rewards(self) -> list[float]:
        return [m.reward for m in self.metrics]

    def cumulative_average_reward(self) -> np.ndarray:
        r = np.asarray(self.rewards, dtype=np.float64)
        if r.size == 0:
            return r
        return np.cumsum(r) / np.arange(1, r.size + 1)


def _child_seed(base: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=base, spawn_key=(tag,)))


def train(config: RunConfig, out_dir: Optional[str | Path] = None) -> TrainResult:
    config.validate()
    env = config.environment()

    corpus = generate_corpus(
        config.seed,
        config.train_prompt_count,
        config.difficulty_min,
        config.difficulty_max,
    )

    net = QNetwork((EMBED_DIM, *HIDDEN_WIDTHS, env.n_actions), seed=config.seed)
    target = net.copy()  # frozen copy to bootstrap against, refreshed every sync interval
    adam = AdamState(net)
    buffer = ReplayBuffer(capacity=config.buffer_capacity, min_size=config.learning_starts)

    prompt_rng = _child_seed(config.seed, 1)  # prompt sampling, with replacement
    explore_rng = _child_seed(config.seed, 2)  # epsilon-greedy draws
    sample_rng = _child_seed(config.seed, 3)  # replay minibatch draws
    seed_rng = _child_seed(config.seed, 4)  # per-episode world seeds

    episodes: list[EpisodeRecord] = []
    metrics: list[StepMetric] = []
    global_step = 0
    epsilon = config.epsilon_initial

    def explore(state, mask, _policy_rng) -> int:
        # exploration draws come from the run-wide stream, not the episode's
        nonlocal epsilon
        epsilon = epsilon_at(
            global_step,
            config.total_steps,
            config.epsilon_initial,
            config.epsilon_final,
            config.exploration_fraction,
        )
        x, cols = embed.compact(state.serialized)
        return select_action(net, x, mask, epsilon, explore_rng, cols)

    def learn(state, action, reward, state2, next_mask) -> bool:
        nonlocal global_step, target
        buffer.push(
            Transition(
                s=embed(state.serialized),
                a=action,
                r=reward,
                s2=embed(state2.serialized),
                done=state2.done,
                next_mask=next_mask,
            )
        )
        global_step += 1
        loss: Optional[float] = None
        if len(buffer) >= config.learning_starts:
            batch = buffer.sample(config.batch_size, sample_rng)
            loss = train_batch(net, target, batch, adam, config.lr, config.gamma)
        synced = global_step % config.target_sync_interval == 0
        if synced:
            target = net.copy()
        metrics.append(
            StepMetric(
                step=global_step,
                episode=len(episodes),
                epsilon=epsilon,
                reward=reward,
                loss=loss,
                synced=synced,
            )
        )
        return global_step < config.total_steps

    while global_step < config.total_steps:
        prompt = corpus[int(prompt_rng.integers(0, len(corpus)))]
        ep_seed = int(seed_rng.integers(0, 2**63))
        episodes.append(
            run_episode(env, explore, prompt, ep_seed, episode_id=len(episodes), on_step=learn)
        )

    result = TrainResult(config=config, net=net, episodes=episodes, metrics=metrics)
    if out_dir is not None:
        result.out_dir = write_artifacts(result, Path(out_dir), global_step)
    return result


def write_artifacts(result: TrainResult, out_dir: Path, step: int) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out_dir / CHECKPOINT_NAME, result.net, step)
    write_episode_log(out_dir / EPISODES_NAME, result.episodes)
    metric_lines = [
        json.dumps(vars(m), sort_keys=True, separators=(",", ":")) for m in result.metrics
    ]
    write_lines(out_dir / METRICS_NAME, metric_lines)
    losses = result.losses
    summary = {
        "total_steps": step,
        "episodes": len(result.episodes),
        "mean_reward": float(np.mean(result.rewards)) if result.metrics else None,
        "mean_episode_return": float(np.mean([e.episode_return for e in result.episodes]))
        if result.episodes
        else None,
        "mean_episode_length": float(np.mean([e.length for e in result.episodes]))
        if result.episodes
        else None,
        "loss_first": losses[0] if losses else None,
        "loss_last": losses[-1] if losses else None,
        "config": json.loads(result.config.to_json()),
    }
    (out_dir / SUMMARY_NAME).write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return out_dir
