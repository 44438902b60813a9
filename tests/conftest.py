import numpy as np
import pytest

from qroute.core import Atom, CanvasState, Prompt, TaskCategory
from qroute.environment import Environment
from qroute.experts import default_registry
from qroute.network import RowGrad


@pytest.fixture(scope="session")
def registry():
    return default_registry()


@pytest.fixture()
def env(registry):
    return Environment(registry)


def make_prompt(atoms, style=None, editing=False, pid=1):
    return Prompt(
        id=pid,
        text=" | ".join(f"{a.category.value} {a.key}" for a in sorted(atoms)),
        atoms=frozenset(atoms),
        style_tag=style,
        initial_canvas=CanvasState.symbolic() if editing else None,
    )


def atom(category, key="k", value="v"):
    return Atom(category=TaskCategory(category), key=key, value=value)


def scatter(params, grads, fill=0.0):
    """Gradients as arrays of the parameters' shapes: each ``RowGrad``
    scattered over a matrix of ``fill`` (+0.0 or -0.0)."""
    out = []
    for p, g in zip(params, grads):
        if isinstance(g, RowGrad):
            dense = np.full(p.shape, fill, dtype=g.values.dtype)
            dense[g.rows] = g.values
            g = dense
        out.append(g)
    return out


def all_rows(grads):
    """Array gradients as ``AdamState.step`` takes them: each matrix's as a
    ``RowGrad`` over all its rows."""
    return [RowGrad(np.arange(len(g)), g) if g.ndim == 2 else g for g in grads]
