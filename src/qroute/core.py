"""Shared domain types: task taxonomy, atoms, canvases, commands, prompts.

The synthetic world tracks image content symbolically. A canvas is the
set of prompt constraints ("atoms") currently satisfied, its style among
them as a ``style_transfer`` atom; experts mutate that set, the critic
reads it.

``satisfied_atoms`` is the one rule for which constraints a canvas meets.
It works on whole sets: frozenset operations reuse the hashes the sets
store, where a per-atom check would hash each atom again through the
dataclass's Python ``__hash__``. ``child_stream`` is the one constructor
of a seeded random stream.

The values a rollout builds at every step, ``CanvasState`` and
``AtomicCommand``, are named tuples: building one costs a tuple, and the
check a type makes runs in its ``__new__`` (``_replace`` goes through it
too). What a rollout reads of a prompt at every step (its seed command,
its spatial, style and removal atoms) is computed once per prompt and kept
on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError


class TaskCategory(str, Enum):
    ADD_OBJECT = "add_object"
    REMOVE_OBJECT = "remove_object"
    OBJECT_RESIZING = "object_resizing"
    BACKGROUND_REPLACEMENT = "background_replacement"
    STYLE_TRANSFER = "style_transfer"
    ADD_TEXT = "add_text"
    LIGHTING_CHANGE = "lighting_change"
    COLOR_CHANGE = "color_change"
    SPATIAL_REARRANGE = "spatial_rearrange"


#: Canonical ordering of the nine editing-task categories.
TAXONOMY: tuple[TaskCategory, ...] = tuple(TaskCategory)

#: Spatial-configuration categories: rubric dimension two scores them, and a
#: generated prompt's forced constraints come from them. ``generate_prompt``
#: indexes the tuple, so its order is part of the prompt stream.
SPATIAL_CATEGORIES: tuple[TaskCategory, ...] = (
    TaskCategory.SPATIAL_REARRANGE,
    TaskCategory.OBJECT_RESIZING,
)

#: Categories whose successful application deletes content instead of adding it.
REMOVAL_CATEGORIES: frozenset[TaskCategory] = frozenset({TaskCategory.REMOVE_OBJECT})


@dataclass(frozen=True, order=True)
class Atom:
    """One verifiable constraint of a prompt, e.g. (add_object, "boats", "6")."""

    category: TaskCategory
    key: str
    value: str


class CanvasKind(str, Enum):
    BLANK = "blank"
    SYMBOLIC = "symbolic"


# the members as plain names: reading one off the enum class costs a
# metaclass lookup, and every step asks whether a canvas is blank
_BLANK_KIND, _SYMBOLIC_KIND = CanvasKind.BLANK, CanvasKind.SYMBOLIC


class _CanvasFields(NamedTuple):
    kind: CanvasKind
    atoms: frozenset[Atom] = frozenset()


class CanvasState(_CanvasFields):
    """An image as its satisfied atoms; a blank canvas has none."""

    __slots__ = ()

    def __new__(cls, kind: CanvasKind, atoms: frozenset[Atom] = frozenset()):
        if kind is _BLANK_KIND and atoms:
            raise ValueError("a blank canvas carries no atoms")
        return tuple.__new__(cls, (kind, atoms))

    @classmethod
    def _make(cls, iterable) -> "CanvasState":
        return cls(*iterable)

    @property
    def is_blank(self) -> bool:
        return self.kind is _BLANK_KIND

    @staticmethod
    def blank() -> "CanvasState":
        return _BLANK

    @staticmethod
    def symbolic(atoms: frozenset[Atom] = frozenset()) -> "CanvasState":
        return CanvasState(_SYMBOLIC_KIND, frozenset(atoms))


_BLANK = CanvasState(_BLANK_KIND)


def satisfied_atoms(
    atoms: frozenset[Atom], canvas: CanvasState, removals: Optional[frozenset[Atom]] = None
) -> frozenset[Atom]:
    """The constraints among ``atoms`` that the canvas meets.

    Removal constraints are met by absence; everything else by presence.
    Blank canvases satisfy nothing. ``removals``, when given, must be the
    removal atoms of ``atoms`` (``Prompt.removals`` keeps a prompt's), and
    saves finding them. The result is built with set operations on the
    stored hashes, so no atom is hashed again.
    """
    if canvas.kind is _BLANK_KIND:
        return frozenset()
    if removals is None:
        removals = frozenset(a for a in atoms if a.category in REMOVAL_CATEGORIES)
    met = atoms & canvas.atoms
    return met ^ removals if removals else met


def child_stream(seed: int, *key: int) -> np.random.Generator:
    """The generator on ``SeedSequence(seed, spawn_key=key)``: the child
    stream named ``key`` of ``seed``, independent of its siblings."""
    if seed < 0:
        raise DomainError(f"seed must be >= 0: {seed}")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def clamp_score(x: float) -> float:
    """``x`` clipped to the rubric's [0, 10] scale."""
    return min(10.0, max(0.0, x))


#: Attempts a command gets; it is abandoned when the last one fails.
MAX_ATTEMPTS = 3


class _CommandFields(NamedTuple):
    id: int
    text: str
    category: TaskCategory
    payload: frozenset[Atom] = frozenset()
    attempts: int = 0


class AtomicCommand(_CommandFields):
    """A self-contained instruction with a per-command attempt counter."""

    __slots__ = ()

    def __new__(
        cls, id: int, text: str, category: TaskCategory, payload: frozenset[Atom] = frozenset(), attempts: int = 0
    ):
        if not 0 <= attempts <= MAX_ATTEMPTS:
            raise ValueError(f"attempt counter out of range: {attempts}")
        return tuple.__new__(cls, (id, text, category, payload, attempts))

    @classmethod
    def _make(cls, iterable) -> "AtomicCommand":
        return cls(*iterable)


#: The residual-command ledger. Its order is meaningful: the agent's state
#: serializes the ledger in this order.
Ledger = tuple[AtomicCommand, ...]


_COMMAND_PHRASES: dict[TaskCategory, str] = {
    TaskCategory.ADD_OBJECT: "insert objects",
    TaskCategory.REMOVE_OBJECT: "erase unwanted",
    TaskCategory.OBJECT_RESIZING: "rescale subject",
    TaskCategory.BACKGROUND_REPLACEMENT: "swap backdrop",
    TaskCategory.STYLE_TRANSFER: "restyle rendering",
    TaskCategory.ADD_TEXT: "write lettering",
    TaskCategory.LIGHTING_CHANGE: "relight scene",
    TaskCategory.COLOR_CHANGE: "recolor regions",
    TaskCategory.SPATIAL_REARRANGE: "rearrange layout",
}


def command_text(category: TaskCategory) -> str:
    """Canonical rendering of a decomposed command.

    Deliberately formulaic: one fixed two-word phrase per category, with
    vocabulary that does not overlap across categories. The ledger tracks
    the atoms themselves; the surface form exists to be embedded, and a
    recurring phrase makes equivalent reflection states recur verbatim
    across prompts.
    """
    return _COMMAND_PHRASES[category]


@dataclass(frozen=True)
class Prompt:
    """A compositional request: a set of atoms. At most one of them is a
    ``style_transfer`` atom, and ``style_tag`` is its value (``None`` when
    there is none): the prompt format states a style twice, and this is
    the one place that keeps the two in agreement."""

    id: int
    text: str
    atoms: frozenset[Atom]
    style_tag: Optional[str] = None
    initial_canvas: Optional[CanvasState] = None

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("prompt atoms must be non-empty")
        seen: set[tuple[TaskCategory, str]] = set()
        for a in self.atoms:
            pair = (a.category, a.key)
            if pair in seen:
                raise ValueError(f"duplicate (category, key) pair in prompt: {pair}")
            seen.add(pair)
        styles = sorted(a.value for a in self.atoms if a.category is TaskCategory.STYLE_TRANSFER)
        if styles != ([] if self.style_tag is None else [self.style_tag]):
            raise ValueError(f"style {self.style_tag!r} is not the value of one style_transfer atom: {styles}")

    @property
    def difficulty(self) -> int:
        return len(self.atoms)

    @cached_property
    def by_category(self) -> dict[TaskCategory, frozenset[Atom]]:
        """The atoms grouped by category, in taxonomy order; computed once
        per prompt, so the critic partitions a canvas with set operations."""
        groups: dict[TaskCategory, set[Atom]] = {}
        for a in self.atoms:
            groups.setdefault(a.category, set()).add(a)
        return {cat: frozenset(groups[cat]) for cat in TAXONOMY if cat in groups}

    @cached_property
    def spatial_atoms(self) -> frozenset[Atom]:
        """The atoms of the spatial-configuration categories, the ones
        rubric dimension two scores."""
        return frozenset(a for a in self.atoms if a.category in SPATIAL_CATEGORIES)

    @cached_property
    def style_atoms(self) -> frozenset[Atom]:
        """The style atom, if any: rubric dimension four scores it."""
        return self.by_category.get(TaskCategory.STYLE_TRANSFER, frozenset())

    @cached_property
    def removals(self) -> frozenset[Atom]:
        """The removal atoms, met by their absence (``satisfied_atoms``);
        generated prompts have none."""
        return frozenset(a for a in self.atoms if a.category in REMOVAL_CATEGORIES)

    @cached_property
    def seed_command(self) -> AtomicCommand:
        """The whole prompt as one command, the first command of every
        episode on it (``Environment.reset``)."""
        from .reflection import classify_task  # the reflection loop builds on this module

        return AtomicCommand(id=0, text=self.text, category=classify_task(self.atoms), payload=self.atoms)
