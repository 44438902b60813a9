import pytest

from qroute.core import Atom, CanvasState, Prompt, TaskCategory
from qroute.environment import Environment
from qroute.experts import default_registry


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
