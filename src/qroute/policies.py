"""Rollout policies and the one episode runner that training and
evaluation both use: greedy network policy, uniform random, the
ground-truth routing oracle, and forced single-expert baselines."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Protocol

import numpy as np

from .agent import select_action
from .core import Prompt
from .embedder import embed
from .environment import Environment, EnvState
from .errors import DomainError
from .experts import ExpertRegistry, Modality
from .logs import EpisodeRecord, StepRecord
from .network import QNetwork
from .simworld import best_legal_expert, oracle_fraction


class Policy(Protocol):
    def __call__(
        self, state: EnvState, mask: np.ndarray, rng: np.random.Generator
    ) -> Optional[int]:
        """Return an action index, or None to stop the rollout."""


#: Sees each transition as (state, action, reward, state2, next_mask);
#: returning False ends the episode after that transition.
StepHook = Callable[[EnvState, int, float, EnvState, np.ndarray], bool]


@dataclass
class GreedyPolicy:
    net: QNetwork

    def __call__(self, state, mask, rng):
        return select_action(self.net, embed(state.serialized), mask, 0.0, rng)


@dataclass
class EpsilonGreedyPolicy:
    net: QNetwork
    epsilon: float

    def __call__(self, state, mask, rng):
        return select_action(self.net, embed(state.serialized), mask, self.epsilon, rng)


class RandomPolicy:
    def __call__(self, state, mask, rng):
        legal = np.flatnonzero(mask)
        if legal.size == 0:
            return None
        return int(legal[rng.integers(0, legal.size)])


@dataclass
class OraclePolicy:
    """Always routes to the ground-truth best legal expert for the current
    command's category; the hand-coded upper reference."""

    registry: ExpertRegistry

    def __call__(self, state, mask, rng):
        if state.c_curr is None:
            return None
        return best_legal_expert(self.registry, state.c_curr.category, state.canvas)


#: The generator that opens the canvas for an editing-only baseline.
DEFAULT_T2I = 4


@dataclass
class SingleExpertPolicy:
    """Forces one expert everywhere it is legal.

    When the forced expert is modally illegal, the same-name counterpart in
    the other block substitutes if one exists. An editing-only expert opens
    the canvas with generator ``DEFAULT_T2I`` when that generator is legal
    and stops otherwise; a generation-only expert simply stops once the
    canvas exists (a single-shot system).
    """

    index: int
    registry: ExpertRegistry

    def __call__(self, state, mask, rng):
        if mask[self.index]:
            return self.index
        counterpart = self.registry.counterpart(self.index)
        if counterpart is not None and mask[counterpart]:
            return counterpart
        spec = self.registry.spec(self.index)
        if (
            spec.modality is Modality.I2I
            and state.canvas.is_blank
            and DEFAULT_T2I < len(mask)
            and mask[DEFAULT_T2I]
        ):
            return DEFAULT_T2I
        return None


def episode_streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """(policy stream, world stream) for one episode.

    Keeping them separate means a logged episode can be re-simulated from
    its action sequence alone: the world stream does not depend on how
    many draws the policy consumed.
    """
    ss = np.random.SeedSequence(seed)
    policy_ss, world_ss = ss.spawn(2)
    return np.random.default_rng(policy_ss), np.random.default_rng(world_ss)


def run_episode(
    env: Environment,
    policy: Policy,
    prompt: Prompt,
    seed: int,
    episode_id: int = 0,
    on_step: Optional[StepHook] = None,
) -> EpisodeRecord:
    """Roll one full episode; deterministic given the seed.

    Each state's legal mask is computed once and carried forward: the mask
    the policy sees is the successor mask of the previous transition.
    """
    policy_rng, rng = episode_streams(seed)
    state = env.reset(prompt)
    mask = env.legal_actions(state)
    steps: list[StepRecord] = []
    total = 0.0
    truncated_by: Optional[str] = None
    while not state.done:
        action = policy(state, mask, policy_rng)
        if action is None:
            truncated_by = "policy"
            break
        action = int(action)
        state2, reward, _, record = env.step(state, action, rng)
        next_mask = env.legal_actions(state2)
        total += reward
        steps.append(record)
        keep_going = on_step is None or on_step(state, action, reward, state2, next_mask)
        state, mask = state2, next_mask
        if not keep_going:
            truncated_by = None if state.done else "budget"
            break
    return EpisodeRecord(
        episode_id=episode_id,
        seed=seed,
        prompt=prompt,
        steps=tuple(steps),
        episode_return=total,
        length=len(steps),
        final_oracle_fraction=oracle_fraction(state.canvas, prompt),
        truncated_by=truncated_by,
    )


def episode_seed(base_seed: int, prompt_id: int, repeat: int) -> int:
    """Stable per-(prompt, repeat) seed so paired policies share randomness."""
    if repeat < 0:
        raise DomainError("repeat must be >= 0")
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(prompt_id, repeat))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
