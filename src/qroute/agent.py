"""Value-learning machinery: replay buffer, exploration schedule, masked
action selection, Bellman targets and the per-batch update."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BufferTooSmall, DomainError, EmptyMask, NumericalError
from .network import AdamState, QNetwork

GAMMA_DEFAULT = 0.99
LR_DEFAULT = 5e-4
BUFFER_CAPACITY_DEFAULT = 500
LEARNING_STARTS_DEFAULT = 50


@dataclass(frozen=True)
class Transition:
    s: np.ndarray
    a: int
    r: float
    s2: np.ndarray
    done: bool
    next_mask: np.ndarray  # legal actions in s2


class ReplayBuffer:
    """Fixed-capacity ring of transitions; oldest entries evict first."""

    def __init__(
        self,
        capacity: int = BUFFER_CAPACITY_DEFAULT,
        min_size: int = LEARNING_STARTS_DEFAULT,
    ):
        if capacity < 1:
            raise DomainError("capacity must be >= 1")
        self.capacity = capacity
        self.min_size = min_size
        self._items: list[Transition] = []
        self._cursor = 0

    def __len__(self) -> int:
        return len(self._items)

    def push(self, transition: Transition) -> None:
        if len(self._items) < self.capacity:
            self._items.append(transition)
        else:
            self._items[self._cursor] = transition
            self._cursor = (self._cursor + 1) % self.capacity

    def sample(self, batch_size: int, rng: np.random.Generator) -> list[Transition]:
        """Uniform sampling with replacement; refused below the warmup size."""
        if len(self._items) < self.min_size:
            raise BufferTooSmall(
                f"buffer holds {len(self._items)} transitions, learning starts at {self.min_size}"
            )
        idx = rng.integers(0, len(self._items), size=batch_size)
        return [self._items[int(i)] for i in idx]

    def snapshot(self) -> list[Transition]:
        return list(self._items)


def epsilon_at(
    step: int,
    horizon: int,
    initial: float = 1.0,
    final: float = 0.1,
    fraction: float = 0.5,
) -> float:
    """Linear anneal from ``initial`` to ``final`` over ``fraction`` of the
    horizon, flat afterwards."""
    if step < 0:
        raise DomainError(f"step must be >= 0: {step}")
    if horizon <= 0:
        raise DomainError(f"horizon must be > 0: {horizon}")
    if not 0.0 < fraction <= 1.0:
        raise DomainError(f"fraction must be in (0, 1]: {fraction}")
    anneal = fraction * horizon
    if step >= anneal:
        return final
    return initial + (final - initial) * (step / anneal)


def select_action(
    net: QNetwork,
    s: np.ndarray,
    mask: np.ndarray,
    epsilon: float,
    rng: np.random.Generator,
) -> int:
    """Epsilon-greedy over the legal actions only; greedy ties break low."""
    legal = np.flatnonzero(np.asarray(mask, dtype=bool))
    if legal.size == 0:
        raise EmptyMask("no legal action to select from")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(legal[rng.integers(0, legal.size)])
    q = np.asarray(net.forward(s), dtype=np.float64)
    masked = np.full(q.shape, -np.inf)
    masked[legal] = q[legal]
    return int(np.argmax(masked))


def td_targets(
    batch: Sequence[Transition], target_net: QNetwork, gamma: float = GAMMA_DEFAULT
) -> np.ndarray:
    """One-step Bellman targets; terminal transitions use the bare reward.

    The successor-state maximum ranges over that state's own legal actions
    so the bootstrap never leans on an expert the agent could not pick; a
    successor with no legal action bootstraps from 0.0.
    """
    if not batch:
        raise DomainError("batch must be non-empty")
    s2 = np.stack([tr.s2 for tr in batch])
    legal = np.array([tr.next_mask for tr in batch], dtype=bool)
    r = np.array([tr.r for tr in batch], dtype=np.float64)
    done = np.array([tr.done for tr in batch], dtype=bool)
    q2 = np.asarray(target_net.forward(s2), dtype=np.float64)
    bootstrap = np.where(legal.any(axis=1), np.where(legal, q2, -np.inf).max(axis=1), 0.0)
    return np.where(done, r, r + gamma * bootstrap)


def train_batch(
    net: QNetwork,
    target_net: QNetwork,
    batch: Sequence[Transition],
    adam: AdamState,
    lr: float = LR_DEFAULT,
    gamma: float = GAMMA_DEFAULT,
) -> float:
    """One Adam step on the mean squared TD error; returns the pre-step loss."""
    y = td_targets(batch, target_net, gamma)
    s = np.stack([tr.s for tr in batch])
    actions = np.array([tr.a for tr in batch], dtype=np.intp)
    q, cache = net.forward_cached(s)
    q_sel = q[np.arange(len(batch)), actions].astype(np.float64)
    err = q_sel - y
    loss = float(np.mean(err**2))
    if not np.isfinite(loss):
        raise NumericalError(f"non-finite loss: {loss}")
    dq = np.zeros_like(q, dtype=np.float64)
    dq[np.arange(len(batch)), actions] = 2.0 * err / len(batch)
    grads = net.backward(cache, dq)
    net.check_finite(adam.step(net.parameters(), grads, lr))
    return loss
