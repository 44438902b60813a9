"""Value-learning machinery: replay buffer, exploration schedule, masked
action selection, Bellman targets and the per-batch update.

The replay buffer is a ring of preallocated arrays (action, reward, done,
successor mask) whose states are rows of a state table. The table stores
each distinct pushed state once, as its nonzero columns and their values,
so a sampled batch is a few gathers: its states come out compact, ``x``
holding only the union of the batch's nonzero columns ``cols``, which is
what the network's first layer multiplies.

The table also keeps each state's Q-values under the target network. The
target is frozen between syncs and a default run's replay holds about 70
distinct states, so a state's row is computed when the state is stored and
again at each sync, every held row in one product; a batch carries its
successors' rows, ``q2``, and a sample runs no forward pass. The rows rest
on one measured property of these products: a row's bits do not depend on
the other rows in them, so ``q2`` equals a per-batch forward pass over the
sampled successors bit for bit. A one-row product rounds differently, so a
lone row is padded to two. ``_StateTable`` gives the measured range.

The learner's settings (discount, learning rate, buffer sizes, exploration
schedule) have no defaults here: ``RunConfig`` owns them, and ``train``
passes them in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError, NumericalError
from .network import AdamState, QNetwork


class Transition(NamedTuple):
    s: np.ndarray
    a: int
    r: float
    s2: np.ndarray
    done: bool
    next_mask: np.ndarray  # legal actions in s2


class States(NamedTuple):
    """Rows of state vectors in compact form: ``x[:, j]`` is column
    ``cols[j]`` of every vector, and the vectors are zero in every other
    column. ``cols`` is sorted, as ``QNetwork.forward_cached`` takes it."""

    x: np.ndarray
    cols: np.ndarray


@dataclass(frozen=True)
class Batch:
    """Transitions as arrays, one row per transition. A successor state is
    given by its target Q-values ``q2`` (float64), all the Bellman target
    reads of it."""

    s: States
    a: np.ndarray
    r: np.ndarray
    q2: np.ndarray
    done: np.ndarray
    next_mask: np.ndarray

    def __len__(self) -> int:
        return len(self.a)


class _StateTable:
    """The distinct states a replay buffer refers to, each stored once as
    its nonzero columns and their values, padded to the widest state with
    column -1 and value 0, beside its Q-values under the target network.

    A row is keyed on the identity of the pushed vector and holds a
    reference to it, so the key cannot be reused while the row lives; the
    vectors must not change after they are pushed (the embedder's are
    read-only). Rows are counted by the ring slots that refer to them and
    freed at zero.

    A row's Q-values under ``target`` are computed when the row is stored
    and, every held row in one product, at each ``set_target``. Measured on
    the production network (1536 -> 64 -> 64 -> 12, float32) with OpenBLAS
    through numpy 2.4 on a 2-core x86-64 host, with one BLAS thread and
    with two, in seeds 1-30: products of 2 to 102 rows over up to 120
    columns gave every sampled row the bits of a per-batch forward pass. A
    one-row product rounds differently, so a lone row is padded to two
    rows. Larger products, another BLAS or another shape stay
    deterministic but are not claimed equal to a per-batch forward pass.
    """

    def __init__(self, rows: int):
        self.vectors: list[np.ndarray | None] = [None] * rows
        self._refs = [0] * rows
        self._row_of: dict[int, int] = {}
        self._free = list(range(rows - 1, -1, -1))
        self._cols = np.full((rows, 0), -1, dtype=np.intp)
        self._vals = np.zeros((rows, 0), dtype=np.float64)
        self.q = np.zeros((rows, 0), dtype=np.float64)  # target Q-values, sized by the first target
        self.target: QNetwork | None = None
        # a column's position in the batch being gathered, zero between
        # gathers; the last entry stands for the padding column -1
        self._pos = np.zeros(1, dtype=np.intp)

    def __len__(self) -> int:
        return len(self._row_of)

    def add(self, vector: np.ndarray) -> int:
        row = self._row_of.get(id(vector))
        if row is None:
            row = self._free.pop()
            nz = np.flatnonzero(vector)
            width = len(nz)
            if width > self._cols.shape[1]:
                pad = ((0, 0), (0, width - self._cols.shape[1]))
                self._cols = np.pad(self._cols, pad, constant_values=-1)
                self._vals = np.pad(self._vals, pad)
            if width and nz[-1] + 2 > len(self._pos):
                self._pos = np.zeros(nz[-1] + 2, dtype=np.intp)
            self._cols[row, :width] = nz
            self._cols[row, width:] = -1
            self._vals[row, :width] = vector[nz]
            self._vals[row, width:] = 0.0
            self.vectors[row] = vector
            self._row_of[id(vector)] = row
            if self.target is not None:
                self._compute(np.array([row]))
        self._refs[row] += 1
        return row

    def release(self, row: int) -> None:
        self._refs[row] -= 1
        if not self._refs[row]:
            del self._row_of[id(self.vectors[row])]
            self.vectors[row] = None
            self._free.append(row)

    def set_target(self, target: QNetwork) -> None:
        """Bootstrap from ``target``, recomputing every held row's Q-values
        in one product."""
        self.target = target
        if self.q.shape[1] != target.n_actions:
            self.q = np.zeros((len(self.vectors), target.n_actions), dtype=np.float64)
        if self._row_of:
            self._compute(np.fromiter(self._row_of.values(), dtype=np.intp))

    def _compute(self, rows: np.ndarray) -> None:
        rows = np.resize(rows, max(len(rows), 2))  # a one-row product rounds differently
        self.q[rows] = self.target.forward(*self.gather(rows))

    def gather(self, rows: np.ndarray) -> States:
        """The states of ``rows`` in compact form. ``cols``, the union of
        their stored columns, equals ``flatnonzero(x_dense.any(axis=0))``."""
        padded = self._cols.take(rows, axis=0)
        pos = self._pos
        pos[padded] = 1
        pos[-1] = 0
        cols = np.flatnonzero(pos)
        n = len(cols)
        pos[cols] = np.arange(n)
        pos[-1] = n  # the padding goes to a spare last column of x
        x = np.zeros((len(rows), n + 1))
        x[np.arange(len(rows))[:, None], pos[padded]] = self._vals.take(rows, axis=0)
        pos[cols] = 0
        return States(x[:, :n], cols)


class ReplayBuffer:
    """Fixed-capacity ring of transitions; oldest entries evict first.

    Each slot holds an action, reward, done flag and successor mask in
    preallocated arrays, and its two states as rows of a state table, so
    the table holds at most 2 * capacity rows. The table also keeps each
    state's Q-values under the target network given to ``set_target``, so
    a sample reads a successor's as one row and runs no forward pass.
    """

    def __init__(self, capacity: int, min_size: int):
        if capacity < 1:
            raise DomainError("capacity must be >= 1")
        self.capacity = capacity
        self.min_size = min_size
        self._len = 0
        self._cursor = 0
        self._states = _StateTable(2 * capacity)
        self._s = np.zeros(capacity, dtype=np.intp)
        self._s2 = np.zeros(capacity, dtype=np.intp)
        self._a = np.zeros(capacity, dtype=np.intp)
        self._r = np.zeros(capacity, dtype=np.float64)
        self._done = np.zeros(capacity, dtype=bool)
        self._next_mask: np.ndarray | None = None  # (capacity, actions), sized by the first push

    def __len__(self) -> int:
        return self._len

    @property
    def ready(self) -> bool:
        """Whether it holds the warmup size, below which sampling is refused."""
        return self._len >= self.min_size

    def set_target(self, target: QNetwork) -> None:
        """Bootstrap from ``target`` from now on. It must not change while
        it is the target: the held states' Q-values are computed from it
        now, and a new state's when it is stored."""
        self._states.set_target(target)

    def push(self, transition: Transition) -> None:
        slot = self._cursor
        self._cursor = (slot + 1) % self.capacity
        if self._len == self.capacity:
            self._states.release(self._s[slot])
            self._states.release(self._s2[slot])
        else:
            self._len += 1
        if self._next_mask is None:
            self._next_mask = np.zeros((self.capacity, len(transition.next_mask)), dtype=bool)
        self._s[slot] = self._states.add(transition.s)
        self._s2[slot] = self._states.add(transition.s2)
        self._a[slot] = transition.a
        self._r[slot] = transition.r
        self._done[slot] = transition.done
        self._next_mask[slot] = transition.next_mask

    def sample(self, batch_size: int, rng: np.random.Generator) -> Batch:
        """Uniform sampling with replacement; refused below the warmup size
        or without a target."""
        if not self.ready:
            raise DomainError(
                f"buffer holds {self._len} transitions, learning starts at {self.min_size}"
            )
        if batch_size < 1:
            raise DomainError(f"batch size must be >= 1: {batch_size}")
        if self._states.target is None:
            raise DomainError("no target network to bootstrap from: call set_target first")
        idx = rng.integers(0, self._len, size=batch_size)
        return Batch(
            s=self._states.gather(self._s.take(idx)),
            a=self._a.take(idx),
            r=self._r.take(idx),
            q2=self._states.q.take(self._s2.take(idx), axis=0),
            done=self._done.take(idx),
            next_mask=self._next_mask.take(idx, axis=0),
        )

    def snapshot(self) -> list[Transition]:
        """The held transitions in slot order, their states the pushed
        vector objects."""
        vectors, s, s2 = self._states.vectors, self._s, self._s2
        return [
            Transition(
                vectors[s[i]], int(self._a[i]), float(self._r[i]), vectors[s2[i]],
                bool(self._done[i]), self._next_mask[i].copy(),
            )
            for i in range(self._len)
        ]


def epsilon_at(step: int, horizon: int, initial: float, final: float, fraction: float) -> float:
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
    rng: Optional[np.random.Generator],
    cols: np.ndarray | None = None,
) -> int:
    """Epsilon-greedy over the legal actions only; greedy ties break low.
    ``s`` is a state vector, or its nonzero entries at ``cols`` (see
    ``QNetwork.forward_cached``). ``rng`` is read only when ``epsilon > 0``."""
    legal = np.flatnonzero(np.asarray(mask, dtype=bool))
    if legal.size == 0:
        raise DomainError("no legal action to select from")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(legal[rng.integers(0, legal.size)])
    q = np.asarray(net.forward(s, cols), dtype=np.float64)
    masked = np.full(q.shape, -np.inf)
    masked[legal] = q[legal]
    return int(np.argmax(masked))


def td_targets(batch: Batch, gamma: float) -> np.ndarray:
    """One-step Bellman targets from the batch's target Q-values; terminal
    transitions use the bare reward.

    The successor-state maximum ranges over that state's own legal actions
    so the bootstrap never leans on an expert the agent could not pick; a
    successor with no legal action bootstraps from 0.0.
    """
    if not len(batch):
        raise DomainError("batch must be non-empty")
    legal = batch.next_mask
    bootstrap = np.where(legal.any(axis=1), np.where(legal, batch.q2, -np.inf).max(axis=1), 0.0)
    return np.where(batch.done, batch.r, batch.r + gamma * bootstrap)


def train_batch(net: QNetwork, batch: Batch, adam: AdamState, lr: float, gamma: float) -> float:
    """One Adam step on the mean squared TD error; returns the pre-step loss."""
    y = td_targets(batch, gamma)
    q, cache = net.forward_cached(batch.s.x, batch.s.cols)
    rows = np.arange(len(y))
    err = q[rows, batch.a].astype(np.float64) - y
    loss = float(np.mean(err**2))
    if not np.isfinite(loss):
        raise NumericalError(f"non-finite loss: {loss}")
    dq = np.zeros_like(q, dtype=np.float64)
    dq[rows, batch.a] = 2.0 * err / len(y)
    grads = net.backward(cache, dq)
    net.check_finite(adam.step(net, grads, lr))
    return loss
