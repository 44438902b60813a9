"""Episode MDP: reset, masked step, reward shaping, termination.

One step = select expert, invoke it on the current command, score the
result (the critic only scores), let the attempt policy settle the executed
command (gone, requeued at the back of the ledger, or abandoned) and
rebuild the ledger, extract the next command, shape the reward. Episodes
end when the ledger drains or the step budget runs out; done is absorbing.
A state holds only what the next step reads.

A step builds only plain values: the successor ``EnvState`` and the
step's ``StepRecord`` are named tuples, so a state is immutable, compares
and hashes by value, and keys a memo as it is. Its text form
``serialized`` is formatted on every read. ``reset`` reads the prompt's
seed command, built once per prompt.

Which experts are legal depends only on whether the canvas is blank; the
registry holds the read-only legal mask of each kind of canvas, and of a
finished episode. A step checks its action against one and logs its tuple,
and ``legal_actions`` hands out the read-only mask itself.

The world's randomness reaches a step as ``world``, an iterator of
``experts.draw`` pairs (one uniform, then one normal): each step reads
exactly one pair, its expert call's draws. The episode runner passes an
iterator over a pre-drawn table (``policies.world_draws``).

The step budget and the step penalty have no defaults here: a run's world
is built by ``RunConfig``, which owns them; ``Environment`` checks their
types and ranges (an integer budget of at least one step, a finite penalty
of at least 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .core import Atom, AtomicCommand, CanvasState, Ledger, Prompt
from .embedder import serialize_reflection_state
from .errors import DomainError
from .experts import ExpertRegistry
from .logs import StepRecord, typed
from .reflection import apply_attempt_policy, critic_score, extract_command


def shape_reward(raw: float, t: int, step_penalty: float, t_max: int) -> float:
    """Normalize a raw critic score and charge the pipeline-length penalty."""
    if not 0.0 <= raw <= 10.0:
        raise DomainError(f"raw score out of [0, 10]: {raw}")
    if not 1 <= t <= t_max:
        raise DomainError(f"step index out of [1, {t_max}]: {t}")
    return raw / 10.0 - step_penalty * t


class EnvState(NamedTuple):
    """One state of an episode: an immutable value."""

    prompt: Prompt
    canvas: CanvasState
    c_curr: Optional[AtomicCommand]
    c_rem: Ledger
    t: int
    done: bool
    abandoned_atoms: frozenset[Atom]

    @property
    def serialized(self) -> str:
        """The agent's view of the state as text."""
        cur = self.c_curr.text if self.c_curr is not None else None
        return serialize_reflection_state(cur, [(c.text, c.attempts) for c in self.c_rem])


@dataclass(frozen=True, eq=False)
class Environment:
    """Binds a registry and the reflection loop into one symbolic MDP; read-only."""

    registry: ExpertRegistry
    t_max: int
    step_penalty: float

    def __post_init__(self) -> None:
        try:
            typed(self.t_max, int, "t_max")
        except ValueError as exc:
            raise DomainError(str(exc)) from exc
        if self.t_max < 1:
            raise DomainError("t_max must be >= 1")
        try:
            in_range = typed(self.step_penalty, float, "step_penalty") >= 0.0
        except ValueError:  # not a finite number
            in_range = False
        if not in_range:
            raise DomainError("step_penalty must be a finite number >= 0")

    @property
    def n_actions(self) -> int:
        return len(self.registry)

    def reset(self, prompt: Prompt) -> EnvState:
        """Start an episode: the whole prompt becomes the first command."""
        canvas = prompt.initial_canvas if prompt.initial_canvas is not None else CanvasState.blank()
        return EnvState(prompt, canvas, prompt.seed_command, c_rem=(), t=0, done=False, abandoned_atoms=frozenset())

    def legal_actions(self, state: EnvState) -> np.ndarray:
        """Read-only boolean mask over expert indices; all-false once the
        episode ended."""
        if state.done:
            return self.registry.no_legal_mask
        return self.registry.legal_mask(state.canvas)[0]

    def step(
        self, state: EnvState, action: int, world: Iterator[tuple[float, float]]
    ) -> tuple[EnvState, float, bool, StepRecord]:
        """Apply one expert call on the next pair of ``world``; the record is
        the step's episode-log entry."""
        if state.done:
            raise DomainError("episode already finished")
        assert state.c_curr is not None
        mask = self.registry.legal_mask(state.canvas)[1]
        if not 0 <= action < len(mask) or not mask[action]:
            raise DomainError(f"action {action} illegal on {state.canvas.kind.value} canvas")

        canvas2, quality = self.registry.invoke(action, state.c_curr, state.canvas, next(world))
        verdict = critic_score(canvas2, state.c_curr, state.prompt, quality)
        ledger, abandoned = apply_attempt_policy(
            verdict, state.c_curr, state.c_rem, state.prompt, state.abandoned_atoms
        )

        abandoned_atoms = state.abandoned_atoms
        if abandoned is not None:
            abandoned_atoms = abandoned_atoms | abandoned.payload

        c_next, c_rem2 = extract_command(ledger)
        t2 = state.t + 1
        reward = shape_reward(verdict.raw, t2, self.step_penalty, self.t_max)

        drained = c_next is None and not c_rem2
        done = drained or t2 >= self.t_max
        reason = "drained" if drained else ("budget" if done else None)

        state2 = EnvState(state.prompt, canvas2, c_next, c_rem2, t2, done, abandoned_atoms)
        record = StepRecord(
            t=t2,
            expert=action,
            category=state.c_curr.category.value,
            raw=verdict.raw,
            subscores=verdict.subscores,
            reward=reward,
            completed=verdict.completed,
            mask=mask,
            command_id=state.c_curr.id,
            attempts=state.c_curr.attempts,
            abandoned_command=abandoned.id if abandoned is not None else None,
            terminal_reason=reason,
        )
        return state2, reward, done, record
