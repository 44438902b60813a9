"""Deterministic generator of compositional prompts, plus ground-truth
oracles over the symbolic canvas.

A prompt of difficulty d carries exactly d atoms spanning at least
min(d, 3) distinct categories; half of all prompts ask for a style tag.
Removal-category atoms never appear in generated prompts, so remove_object
exists in the taxonomy for classification, adversarial commands and
hand-written prompt files; the content oracle counts a removal atom as met
by its absence, like the critic (``core.satisfied_atoms``).
"""

from __future__ import annotations

import numpy as np

from .core import SPATIAL_CATEGORIES, Atom, CanvasState, Prompt, TaskCategory, child_stream, command_text, satisfied_atoms
from .errors import DomainError
from .experts import ExpertRegistry

_C = TaskCategory

MAX_DIFFICULTY = 6  # the most atoms a generated prompt carries

#: Content categories a sampled atom may use. Spatial-configuration
#: categories (``core.SPATIAL_CATEGORIES``) enter through the forced
#: constraints of ``generate_prompt``; removal never appears in a generated
#: prompt.
GENERATABLE: tuple[TaskCategory, ...] = (
    _C.ADD_TEXT,
    _C.LIGHTING_CHANGE,
    _C.COLOR_CHANGE,
)

KEY_POOLS: dict[TaskCategory, tuple[str, ...]] = {
    _C.ADD_OBJECT: ("boats", "dogs", "lanterns", "bottles", "players", "clouds", "mugs", "spears", "chairs", "kites"),
    _C.OBJECT_RESIZING: ("tower", "hat", "moon", "table", "statue", "window", "tree", "banner", "bridge", "wheel"),
    _C.BACKGROUND_REPLACEMENT: ("backdrop", "horizon", "wall", "skyline", "field", "curtain", "seascape", "forest", "street", "cavern"),
    _C.ADD_TEXT: ("scoreboard", "sign", "label", "poster", "mug_text", "neon", "chalkboard", "ticket", "badge", "plaque"),
    _C.LIGHTING_CHANGE: ("sky", "lamp", "shadows", "glow", "spotlight", "dusk", "noon", "embers", "overcast", "rimlight"),
    _C.COLOR_CHANGE: ("walls", "car", "jersey", "roof", "door", "boat_hull", "umbrella", "awning", "bicycle", "flowers"),
    _C.SPATIAL_REARRANGE: ("diagonal", "left_of", "centered", "stacked", "row", "circle", "facing", "behind", "between", "corners"),
}

VALUE_POOLS: dict[TaskCategory, tuple[str, ...]] = {
    _C.ADD_OBJECT: ("2", "3", "4", "5", "6", "7"),
    _C.OBJECT_RESIZING: ("larger", "smaller", "double", "half", "towering", "miniature"),
    _C.BACKGROUND_REPLACEMENT: ("beach", "mountains", "city", "desert", "meadow", "harbor"),
    _C.ADD_TEXT: ("home_3_away_1", "sale", "open", "speed_60", "welcome", "est_1999"),
    _C.LIGHTING_CHANGE: ("sunset", "brighter", "dimmer", "golden", "moonlit", "harsh"),
    _C.COLOR_CHANGE: ("teal", "crimson", "amber", "ivory", "violet", "olive"),
    _C.SPATIAL_REARRANGE: ("strict", "loose", "even", "tight", "mirrored", "offset"),
}

STYLE_POOL: tuple[str, ...] = ("watercolor", "ukiyoe", "noir", "popart", "blueprint", "pastel")


def generate_prompt(
    rng: np.random.Generator,
    difficulty: int,
    prompt_id: int = 0,
    editing_prob: float = 0.0,
) -> Prompt:
    """One synthetic prompt with ``difficulty`` atoms. Deterministic per rng.

    A share of prompts (``editing_prob``) are editing tasks: they carry an
    input image, so their episodes start directly in the editing block.
    """
    if not 1 <= difficulty <= MAX_DIFFICULTY:
        raise DomainError(f"difficulty out of [1, {MAX_DIFFICULTY}]: {difficulty}")

    editing = bool(rng.random() < editing_prob)
    styled = bool(rng.random() < 0.5)
    style_tag = str(STYLE_POOL[int(rng.integers(0, len(STYLE_POOL)))]) if styled else None

    # long-form compositions pin spatial-configuration constraints: one for
    # mid-size prompts (arrangement or sizing, evenly split), both for the
    # longest ones, so the step budget stays contested to the very end
    forced: list[TaskCategory] = []
    if difficulty >= 5:
        forced = list(SPATIAL_CATEGORIES)
    elif difficulty >= 2:
        forced = [SPATIAL_CATEGORIES[int(rng.integers(0, len(SPATIAL_CATEGORIES)))]]

    # spread atoms over as many distinct categories as the atom budget
    # allows, so the residual ledger is about as deep as the step budget
    n_plain = difficulty - (1 if styled else 0)
    required = min(difficulty, len(forced) + len(GENERATABLE)) - (1 if styled else 0)
    required = max(required, 0)
    required = min(required, n_plain)

    pool = list(GENERATABLE)
    perm = rng.permutation(len(pool))
    categories = forced[: min(len(forced), n_plain)]
    categories += [pool[int(i)] for i in perm[: max(0, required - len(categories))]]
    while len(categories) < n_plain:
        categories.append(pool[int(rng.integers(0, len(pool)))])

    atoms: set[Atom] = set()
    used: set[tuple[TaskCategory, str]] = set()
    for cat in categories:
        keys = KEY_POOLS[cat]
        key = str(keys[int(rng.integers(0, len(keys)))])
        while (cat, key) in used:
            key = str(keys[int(rng.integers(0, len(keys)))])
        used.add((cat, key))
        values = VALUE_POOLS[cat]
        value = str(values[int(rng.integers(0, len(values)))])
        atoms.add(Atom(category=cat, key=key, value=value))
    if styled:
        atoms.add(Atom(category=_C.STYLE_TRANSFER, key="style", value=style_tag))

    # surface text lists the requested operations in the ledger's phrasing;
    # the atoms carry the actual keys and values
    present = {a.category for a in atoms}
    text = " | ".join(command_text(c) for c in TaskCategory if c in present)
    initial = CanvasState.symbolic() if editing else None
    return Prompt(
        id=prompt_id,
        text=text,
        atoms=frozenset(atoms),
        style_tag=style_tag,
        initial_canvas=initial,
    )


def generate_corpus(
    seed: int,
    count: int,
    difficulty_min: int,
    difficulty_max: int,
    id_start: int = 0,
    editing_prob: float = 0.0,
) -> list[Prompt]:
    """Reproducible prompt corpus with difficulties drawn uniformly."""
    if count < 1:
        raise DomainError(f"prompt count must be >= 1: {count}")
    if not 1 <= difficulty_min <= difficulty_max <= MAX_DIFFICULTY:
        raise DomainError(f"difficulty bounds must satisfy 1 <= min <= max <= {MAX_DIFFICULTY}")
    rng = child_stream(seed, 77)
    prompts = []
    for i in range(count):
        d = int(rng.integers(difficulty_min, difficulty_max + 1))
        prompts.append(generate_prompt(rng, d, prompt_id=id_start + i, editing_prob=editing_prob))
    return prompts


def oracle_fraction(canvas: CanvasState, prompt: Prompt) -> float:
    """Fraction of the prompt's atoms the canvas satisfies (``satisfied_atoms``:
    a removal atom by its absence, any other by its presence); blank scores 0."""
    return len(satisfied_atoms(prompt.atoms, canvas, prompt.removals)) / len(prompt.atoms)


def best_expert(registry: ExpertRegistry, category: TaskCategory) -> int:
    """Ground-truth best editing expert for a category.

    Editing experts are the ones the routing question is about: every step
    after the first has a canvas, on which exactly the I2I block is legal.
    """
    return best_legal_expert(registry, category, CanvasState.symbolic())


def best_legal_expert(
    registry: ExpertRegistry, category: TaskCategory, canvas: CanvasState
) -> int:
    """Argmax of configured skill means over the experts legal on the canvas
    (a registry has one on each kind); ties break to the lowest index."""
    return max(sorted(registry.eligible(canvas)), key=lambda i: registry.spec(i).profile.mean_for(category))
