import json

import numpy as np
import pytest

from qroute.agent import Batch, States, epsilon_at
from qroute.config import RunConfig
from qroute.core import Atom, CanvasState, Prompt, TaskCategory
from qroute.experts import draw
from qroute.network import RowGrad

#: The default run's settings, for the functions that take them.
DEFAULTS = RunConfig()


@pytest.fixture(scope="session")
def registry():
    return DEFAULTS.build_registry()


@pytest.fixture()
def env():
    return DEFAULTS.environment()


def default_epsilon(step, horizon):
    """``epsilon_at`` on the default run's exploration schedule."""
    return epsilon_at(step, horizon, DEFAULTS.epsilon_initial, DEFAULTS.epsilon_final, DEFAULTS.exploration_fraction)


def world_of(seed):
    """A world stream as ``env.step`` reads it: the endless iterator of
    ``experts.draw`` pairs of ``np.random.default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    return iter(lambda: draw(rng), None)


def make_prompt(atoms, editing=False, pid=1):
    """A prompt of ``atoms``; its style tag is the value of its style atom,
    if it has one."""
    return Prompt(
        id=pid,
        text=" | ".join(f"{a.category.value} {a.key}" for a in sorted(atoms)),
        atoms=frozenset(atoms),
        style_tag=next((a.value for a in atoms if a.category is TaskCategory.STYLE_TRANSFER), None),
        initial_canvas=CanvasState.symbolic() if editing else None,
    )


def rewrite_line(path, lineno, **fields):
    """Set ``fields`` of the JSON record on line ``lineno`` (1-based)."""
    lines = path.read_text().splitlines()
    lines[lineno - 1] = json.dumps({**json.loads(lines[lineno - 1]), **fields})
    path.write_text("\n".join(lines) + "\n")


def atom(category, key="k", value="v"):
    return Atom(category=TaskCategory(category), key=key, value=value)


def scatter(params, grads, fill=0.0):
    """Gradients as arrays of the parameters' shapes: the first matrix's
    ``RowGrad`` scattered over a matrix of ``fill`` (+0.0 or -0.0)."""
    rows, values = grads[0]
    dense = np.full(params[0].shape, fill, dtype=values.dtype)
    dense[rows] = values
    return [dense, *grads[1:]]


def all_rows(grads):
    """Array gradients as ``AdamState.step`` takes them: the first
    matrix's as a ``RowGrad`` over all its rows."""
    return [RowGrad(np.arange(len(grads[0])), grads[0]), *grads[1:]]


def compact(x):
    """Dense state rows in the compact form a replay batch carries."""
    cols = np.flatnonzero(x.any(axis=0))
    return States(x[:, cols], cols)


def batch_of(transitions, target):
    """A list of transitions as the ``Batch`` ``ReplayBuffer.sample`` gives
    when bootstrapping from ``target``: the successors' target Q-values come
    from one batched forward pass of the stacked successors, a lone
    successor stacked twice (a one-row product rounds differently)."""
    successors = np.stack([t.s2 for t in transitions] * (2 if len(transitions) == 1 else 1))
    return Batch(
        s=compact(np.stack([t.s for t in transitions])),
        a=np.array([t.a for t in transitions], dtype=np.intp),
        r=np.array([t.r for t in transitions], dtype=np.float64),
        q2=np.asarray(target.forward(successors)[: len(transitions)], dtype=np.float64),
        done=np.array([t.done for t in transitions], dtype=bool),
        next_mask=np.array([t.next_mask for t in transitions], dtype=bool),
    )
