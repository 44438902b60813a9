"""The reflective loop: critic scoring, residual decomposition, attempt
policy, and next-command extraction.

After every expert call the critic scores the step on a four-dimension
rubric (content accuracy, spatial configuration, visual quality, style
consistency) and rebuilds the residual ledger by grouping the prompt's
still-unsatisfied atoms into one command per category. The attempt policy
then decides the fate of the command that was just executed: completed
commands disappear, failed ones requeue with an incremented attempt
counter, and a command failing its third attempt is abandoned for good.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (
    TAXONOMY,
    Atom,
    AtomicCommand,
    CanvasState,
    CommandSet,
    Prompt,
    TaskCategory,
    atom_satisfied,
    command_text,
)
from .errors import DomainError

#: Rubric dimension two (spatial configuration) covers arrangement and sizing.
SPATIAL_CATEGORIES: frozenset[TaskCategory] = frozenset(
    {TaskCategory.SPATIAL_REARRANGE, TaskCategory.OBJECT_RESIZING}
)

MAX_ATTEMPTS = 3


@dataclass(frozen=True)
class CriticVerdict:
    raw: float
    subscores: tuple[float, float, float, float]
    completed: bool
    residual: CommandSet

    def __post_init__(self) -> None:
        expected = sum(self.subscores) / 4.0
        if abs(self.raw - expected) > 1e-9:
            raise ValueError("raw must be the mean of the four subscores")


def _clamp(x: float) -> float:
    return min(10.0, max(0.0, x))


def critic_score(
    curr: CanvasState,
    c_curr: AtomicCommand,
    c_rem: CommandSet,
    prompt: Prompt,
    quality: float,
    id_start: int,
    abandoned: frozenset[Atom] = frozenset(),
) -> CriticVerdict:
    """Score one step and rebuild the residual ledger.

    Subscores: content accuracy is the satisfied fraction of all prompt
    atoms; spatial configuration the satisfied fraction of spatial-category
    atoms (a prompt without spatial atoms scores 10); visual quality passes
    the expert's own quality through; style consistency is all-or-nothing
    against the prompt's style tag.

    The residual ledger covers every unsatisfied, non-abandoned prompt
    atom, one command per category. Commands already present in ``c_rem``
    keep their id and attempt counter (payload refreshed); new categories
    get fresh ids starting at ``id_start`` in taxonomy order.
    """
    n_total = len(prompt.atoms)
    n_sat = sum(1 for a in prompt.atoms if atom_satisfied(a, curr))
    content = 10.0 * n_sat / n_total if n_total else 10.0

    spatial_atoms = [a for a in prompt.atoms if a.category in SPATIAL_CATEGORIES]
    if spatial_atoms:
        n_spatial = sum(1 for a in spatial_atoms if atom_satisfied(a, curr))
        spatial = 10.0 * n_spatial / len(spatial_atoms)
    else:
        spatial = 10.0

    visual = _clamp(float(quality))

    if prompt.style_tag is None or curr.style == prompt.style_tag:
        style = 10.0
    else:
        style = 0.0

    subscores = (_clamp(content), _clamp(spatial), visual, _clamp(style))
    raw = sum(subscores) / 4.0

    completed = all(atom_satisfied(a, curr) for a in c_curr.payload)

    residual = _decompose(curr, c_rem, prompt, abandoned, id_start)
    return CriticVerdict(raw=raw, subscores=subscores, completed=completed, residual=residual)


def _decompose(
    curr: CanvasState,
    c_rem: CommandSet,
    prompt: Prompt,
    abandoned: frozenset[Atom],
    id_start: int,
) -> CommandSet:
    """Group unsatisfied prompt atoms per category into residual commands.

    Atom iteration order never reaches the output: payloads are sets and
    new commands are created in taxonomy order.
    """
    open_atoms: dict[TaskCategory, set[Atom]] = {}
    for a in prompt.atoms:
        if a in abandoned or atom_satisfied(a, curr):
            continue
        open_atoms.setdefault(a.category, set()).add(a)

    next_id = id_start
    commands: list[AtomicCommand] = []
    claimed: set[TaskCategory] = set()

    # existing ledger entries keep identity and position
    for cmd in c_rem:
        if cmd.category in open_atoms and cmd.category not in claimed:
            payload = frozenset(open_atoms[cmd.category])
            commands.append(
                AtomicCommand(
                    id=cmd.id,
                    text=command_text(cmd.category),
                    category=cmd.category,
                    payload=payload,
                    attempts=cmd.attempts,
                )
            )
            claimed.add(cmd.category)

    # leftover categories become new commands, taxonomy order
    for cat in TAXONOMY:
        if cat in open_atoms and cat not in claimed:
            payload = frozenset(open_atoms[cat])
            commands.append(
                AtomicCommand(
                    id=next_id,
                    text=command_text(cat),
                    category=cat,
                    payload=payload,
                    attempts=0,
                )
            )
            next_id += 1
            claimed.add(cat)

    return CommandSet(tuple(commands))


@dataclass(frozen=True)
class AttemptOutcome:
    """Result of the attempt policy: the updated ledger, plus the executed
    command when it was permanently abandoned."""

    residual: CommandSet
    abandoned: Optional[AtomicCommand] = None


def apply_attempt_policy(verdict: CriticVerdict, c_curr: AtomicCommand) -> AttemptOutcome:
    """Decide the executed command's fate inside the fresh residual ledger.

    A completed command is simply gone (its atoms are satisfied, so the
    decomposition no longer lists them). An incomplete single-category
    command reclaims its slot in the ledger with an incremented attempt
    counter, unless this was its third attempt, in which case it is
    dropped and its atoms are abandoned. An incomplete multi-category
    command (only the initial whole-prompt command qualifies) is
    superseded by its per-category decomposition and never requeued.
    """
    residual = verdict.residual
    if verdict.completed:
        return AttemptOutcome(residual=residual)

    categories = {a.category for a in c_curr.payload}
    if len(categories) != 1:
        return AttemptOutcome(residual=residual)
    category = next(iter(categories))

    slot = next((c for c in residual if c.category is category), None)
    # an unmet atom of the command is a prompt atom not yet abandoned, so
    # the decomposition always gives its category a slot
    assert slot is not None
    attempts = min(c_curr.attempts + 1, MAX_ATTEMPTS)
    retried = AtomicCommand(
        id=c_curr.id,
        text=slot.text,
        category=category,
        payload=slot.payload,
        attempts=attempts,
    )
    if attempts < MAX_ATTEMPTS:
        out = tuple(retried if c.id == slot.id else c for c in residual)
        return AttemptOutcome(residual=CommandSet(out))
    return AttemptOutcome(residual=residual.removed(slot.id), abandoned=retried)


def extract_command(c_rem: CommandSet) -> tuple[Optional[AtomicCommand], CommandSet]:
    """Pick the next command: fewest attempts first, then earliest id."""
    if c_rem.is_empty():
        return None, c_rem
    chosen = min(c_rem, key=lambda c: (c.attempts, c.id))
    return chosen, c_rem.removed(chosen.id)


def classify_task(payload: frozenset[Atom]) -> TaskCategory:
    """Deterministic category of a payload: the category holding the most
    atoms, ties broken by taxonomy order."""
    if not payload:
        raise DomainError("cannot classify an empty payload")
    counts: dict[TaskCategory, int] = {}
    for a in payload:
        counts[a.category] = counts.get(a.category, 0) + 1
    best = max(counts.values())
    return next(cat for cat in TAXONOMY if counts.get(cat, 0) == best)
