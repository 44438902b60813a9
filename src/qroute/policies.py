"""Rollout policies and the one episode runner that training and
evaluation both use: greedy network policy, uniform random, the
ground-truth routing oracle, and forced single-expert baselines.

An episode draws from two streams of its seed: the world's, which every
expert call draws from, and the policy's, which only the random and the
exploring policies draw from and which is therefore made on its first draw.

An expert call draws exactly one uniform and then one normal from the
world's stream (``experts.draw``, the one owner of that order), whatever
the policy, so step k of any episode reads the k-th pair of that stream;
``env.step`` reads the world as an iterator of those pairs. ``run_episode``
iterates over a table of the first ``t_max`` pairs, drawn once per seed
(``world_draws``). A paired comparison rolls every policy over the same
episode seeds, so the tables and ``episode_seed`` are memoized, in bounded
memos that hold numbers only.

The greedy policy scores the memoized compact form of the state's
embedding, so its one-row forward pass skips the 1536-column scan. It acts
with a frozen copy of its network and memoizes its action per (state text,
legal mask)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterator, Optional, Protocol

import numpy as np

from .agent import select_action
from .core import Prompt, child_stream
from .embedder import EMBED_DIM, embed
from .environment import Environment, EnvState
from .errors import DomainError
from .experts import ExpertRegistry, Modality, draw
from .logs import EpisodeRecord, StepRecord
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


class GreedyPolicy:
    """The network's best legal action, ties broken low.

    The policy acts with a read-only copy of ``net`` taken when it is built:
    a later change to ``net`` (a training step, new parameters) does not
    reach it, and a policy built after the change acts with the changed
    network. Over that fixed copy a greedy action is a pure function of the
    state's text and legal mask, so it is memoized on the pair, and a state
    seen before costs no forward pass. Like the embedder's memo it needs no
    bound: the reflection states are formulaic, a few hundred texts.
    """

    def __init__(self, net: QNetwork):
        # the compact input carries no width, so the forward pass cannot check it
        if net.n_inputs != EMBED_DIM:
            raise DomainError(
                f"expected a network of input width {EMBED_DIM}, got one that reads {net.n_inputs}-wide states"
            )
        flat = net.flat.copy()
        flat.setflags(write=False)
        self.net = QNetwork.from_flat(net.layer_sizes, flat)
        self._actions: dict[tuple[str, bytes], int] = {}

    def __call__(self, state, mask, rng):
        key = (state.serialized, np.asarray(mask, dtype=bool).tobytes())
        action = self._actions.get(key)
        if action is None:
            x, cols = embed.compact(state.serialized)
            action = self._actions[key] = select_action(self.net, x, mask, 0.0, rng, cols)
        return action


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


#: The spawn keys of an episode's two streams under its seed.
POLICY_STREAM, WORLD_STREAM = (0,), (1,)


def episode_streams(seed: int) -> tuple[LazyGenerator, Iterator[tuple[float, float]]]:
    """(policy stream, world stream) for one episode, on the two children
    ``SeedSequence(seed).spawn(2)`` gives, built from their spawn keys: a
    generator made on the policy's first draw, and the endless iterator of
    ``experts.draw`` pairs that ``env.step`` reads.

    Keeping them separate means a logged episode can be re-simulated from
    its action sequence alone: the world stream does not depend on how
    many draws the policy consumed.
    """
    world = child_stream(seed, *WORLD_STREAM)
    return LazyGenerator(seed, POLICY_STREAM), iter(partial(draw, world), None)  # draw never gives None


#: Draw tables ``world_draws`` keeps: more than the episode seeds of one
#: paired comparison (``experiment.run_seed`` has 100), each under a
#: kilobyte.
WORLD_DRAWS_MEMO = 256


@lru_cache(maxsize=WORLD_DRAWS_MEMO)
def world_draws(seed: int, pairs: int) -> tuple[tuple[float, float], ...]:
    """The first ``pairs`` pairs of the world stream of
    ``episode_streams(seed)``, in draw order. Memoized."""
    rng = child_stream(seed, *WORLD_STREAM)
    return tuple(draw(rng) for _ in range(pairs))


def run_episode(
    env: Environment,
    policy: Policy,
    prompt: Prompt,
    seed: int,
    episode_id: int = 0,
    on_step: Optional[StepHook] = None,
) -> EpisodeRecord:
    """Roll one full episode; deterministic given the seed.

    The world is read from the seed's draw table, the policy stream is
    ``episode_streams``'s. Each state's legal mask is computed once and
    carried forward: the mask the policy sees is the successor mask of the
    previous transition.
    """
    policy_rng = LazyGenerator(seed, POLICY_STREAM)
    world = iter(world_draws(seed, env.t_max))
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
        state2, reward, _, record = env.step(state, action, world)
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
    if prompt_id < 0:
        raise DomainError(f"prompt id must be >= 0: {prompt_id}")
    if repeat < 0:
        raise DomainError("repeat must be >= 0")
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(prompt_id, repeat))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
