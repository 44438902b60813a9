"""Rollout policies and the one episode runner that training and
evaluation both use: greedy network policy, uniform random, the
ground-truth routing oracle, and forced single-expert baselines.

An episode draws from two streams of its seed: the world's, which every
expert call draws from, and the policy's, which only the random and the
exploring policies draw from and which is therefore made on its first draw.
``episode_seed`` is memoized, since a paired comparison rolls every policy
over the same episode seeds.

The network policies score the memoized compact form of the state's
embedding, so their one-row forward pass skips the 1536-column scan."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Protocol

import numpy as np

from .agent import select_action
from .core import Prompt, child_stream
from .embedder import EMBED_DIM, embed
from .environment import Environment, EnvState
from .errors import DomainError
from .experts import ExpertRegistry, Modality
from .logs import EpisodeRecord, StepRecord, reward_sum
from .network import QNetwork
from .simworld import best_legal_expert, oracle_fraction


class Policy(Protocol):
    def __call__(
        self, state: EnvState, mask: np.ndarray, rng: np.random.Generator
    ) -> Optional[int]:
        """Return an action index, or None to stop the rollout. ``rng`` is
        the episode's policy stream; ``run_episode`` passes a
        ``LazyGenerator``, which forwards every draw to a generator."""


#: Sees each transition as (state, action, reward, state2, next_mask);
#: returning False ends the episode after that transition.
StepHook = Callable[[EnvState, int, float, EnvState, np.ndarray], bool]


def _check_width(net: QNetwork) -> None:
    # the compact input carries no width, so the forward pass cannot check it
    if net.n_inputs != EMBED_DIM:
        raise DomainError(
            f"expected a network of input width {EMBED_DIM}, got one that reads {net.n_inputs}-wide states"
        )


@dataclass
class GreedyPolicy:
    net: QNetwork

    def __post_init__(self) -> None:
        _check_width(self.net)

    def __call__(self, state, mask, rng):
        x, cols = embed.compact(state.serialized)
        return select_action(self.net, x, mask, 0.0, rng, cols)


@dataclass
class EpsilonGreedyPolicy:
    net: QNetwork
    epsilon: float

    def __post_init__(self) -> None:
        _check_width(self.net)

    def __call__(self, state, mask, rng):
        x, cols = embed.compact(state.serialized)
        return select_action(self.net, x, mask, self.epsilon, rng, cols)


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


class LazyGenerator:
    """The generator ``core.child_stream(seed, *spawn_key)``, made on its
    first draw: most policies never draw from their stream.
    Every attribute of the generator is forwarded, so a policy draws from it
    as from the generator itself (though it is not an instance of one)."""

    __slots__ = ("_seed", "_spawn_key", "_rng")

    def __init__(self, seed: int, spawn_key: tuple[int, ...]):
        self._seed = seed
        self._spawn_key = spawn_key
        self._rng: Optional[np.random.Generator] = None

    def __getattr__(self, name: str):
        if name.startswith("_"):
            # an unset slot (a copy being built) or a protocol probe; never
            # a draw, and looking it up on the generator would recurse
            raise AttributeError(name)
        if self._rng is None:
            self._rng = child_stream(self._seed, *self._spawn_key)
        return getattr(self._rng, name)


def episode_streams(seed: int) -> tuple[LazyGenerator, np.random.Generator]:
    """(policy stream, world stream) for one episode: generators on the two
    children ``SeedSequence(seed).spawn(2)`` gives, built directly from
    their spawn keys. The policy stream is made only if the policy draws
    from it.

    Keeping them separate means a logged episode can be re-simulated from
    its action sequence alone: the world stream does not depend on how
    many draws the policy consumed.
    """
    return LazyGenerator(seed, (0,)), child_stream(seed, 1)


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
    truncated_by: Optional[str] = None
    while not state.done:
        action = policy(state, mask, policy_rng)
        if action is None:
            truncated_by = "policy"
            break
        action = int(action)
        state2, reward, _, record = env.step(state, action, rng)
        next_mask = env.legal_actions(state2)
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
        episode_return=reward_sum(steps),
        length=len(steps),
        final_oracle_fraction=oracle_fraction(state.canvas, prompt),
        truncated_by=truncated_by,
    )


@lru_cache(maxsize=1024)
def episode_seed(base_seed: int, prompt_id: int, repeat: int) -> int:
    """Stable per-(prompt, repeat) seed so paired policies share randomness.
    Memoized: every policy of a comparison asks for the same keys (a
    held-out evaluation has 100)."""
    if base_seed < 0:
        raise DomainError(f"seed must be >= 0: {base_seed}")
    if repeat < 0:
        raise DomainError("repeat must be >= 0")
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(prompt_id, repeat))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
